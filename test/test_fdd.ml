(* Differential tests for the cross-element FDD fusion pass (lib/fdd):
   the fused datapath must be observationally identical to the compiled
   and the interpreted one — same emitted frames in order, same drop
   reasons, same spawns and contained faults, same conservation ledger,
   same per-element obs ledger — across batch sizes, domain counts, and
   seeded fault injection. Plus the live route add/remove semantics the
   fused Route leaf must track, and the fused-region stats surface. *)

module Fault = Oclick_fault
module Driver = Oclick_runtime.Driver
module Hooks = Oclick_runtime.Hooks
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr
module Router = Oclick_graph.Router
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Obs = Oclick_obs
module Fdd = Oclick_fdd

let () = Oclick_elements.register_all ()
let () = Oclick_compile.register ()
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let batches = [ 1; 8; 32 ]

(* The three datapaths under comparison. [`Fuse] deliberately passes
   [~compile:false ~fuse:true] to exercise fuse-implies-compile. *)
let modes = [ `Interp; `Compile; `Fuse ]

let mode_name = function
  | `Interp -> "interp"
  | `Compile -> "compiled"
  | `Fuse -> "fused"

let mode_flags = function
  | `Interp -> (false, false)
  | `Compile -> (true, false)
  | `Fuse -> (false, true)

let ip_router_graph ?(n = 2) () =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces n))

(* --- generic outcome harness over any device-fed configuration --------- *)

(* Replays one deterministic traffic script against a graph instantiated
   in any of the three modes and snapshots every observable outcome. *)

type outcome = {
  o_emitted : string list array;  (** raw frames per device, in order *)
  o_drops : (string * int) list;
  o_spawns : int;
  o_faults : int;
  o_residual : int;
  o_injected : int;
}

let frame_bytes p = Packet.to_string p

(* Same rule oclick-run uses to decide which simulated devices a
   configuration needs, seeing through the Devirtualize@@CLASS@@N names
   click-devirtualize gives specialized classes. *)
let device_names graph =
  let names = ref [] in
  List.iter
    (fun i ->
      let cls = Router.class_of graph i in
      match
        match String.split_on_char '@' cls with
        | [ "Devirtualize"; ""; orig; ""; _ ] -> orig
        | _ -> cls
      with
      | "PollDevice" | "FromDevice" | "ToDevice" -> (
          match Oclick_lang.Args.split (Router.config graph i) with
          | d :: _ when not (List.mem d !names) -> names := d :: !names
          | _ -> ())
      | _ -> ())
    (Router.indices graph);
  List.rev !names

let play ?quarantine ~ctx ~batch ~mode ~script graph =
  let compile, fuse = mode_flags mode in
  let drops = Hashtbl.create 8 and spawns = ref 0 and faults = ref 0 in
  let hooks =
    {
      Hooks.null with
      Hooks.on_drop =
        (fun ~idx:_ ~cls:_ ~reason _ ->
          Hashtbl.replace drops reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt drops reason)));
      on_spawn = (fun ~idx:_ ~cls:_ _ -> incr spawns);
      on_fault = (fun ~idx:_ ~cls:_ ~reason:_ -> incr faults);
    }
  in
  let devs =
    Array.of_list
      (List.map
         (fun name -> new Netdevice.queue_device name ())
         (device_names graph))
  in
  let devices =
    Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs)
  in
  let d =
    match
      Driver.instantiate ~hooks ~devices ?quarantine ~batch ~compile ~fuse graph
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s: instantiate (%s): %s" ctx (mode_name mode) e
  in
  let injected = ref 0 in
  List.iter
    (fun (iface, p) ->
      incr injected;
      devs.(iface mod Array.length devs)#inject (Packet.clone p))
    script;
  check_bool
    (Printf.sprintf "%s (%s): router goes idle" ctx (mode_name mode))
    true (Driver.run_until_idle d);
  let emitted =
    Array.map
      (fun (dev : Netdevice.queue_device) ->
        let rec drain acc =
          match dev#collect with
          | Some p -> drain (frame_bytes p :: acc)
          | None -> List.rev acc
        in
        drain [])
      devs
  in
  let residual = ref 0 in
  for i = 0 to Driver.size d - 1 do
    List.iter
      (fun (k, v) ->
        if k = "length" || k = "pending" then residual := !residual + v)
      (Driver.element_at d i)#stats
  done;
  {
    o_emitted = emitted;
    o_drops =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) drops []);
    o_spawns = !spawns;
    o_faults = !faults;
    o_residual = !residual;
    o_injected = !injected;
  }

let check_outcomes_equal ~ctx a b =
  let label s = Printf.sprintf "%s: %s" ctx s in
  Alcotest.(check (list (pair string int))) (label "drop reasons") a.o_drops
    b.o_drops;
  check (label "spawns") a.o_spawns b.o_spawns;
  check (label "contained faults") a.o_faults b.o_faults;
  check (label "residual") a.o_residual b.o_residual;
  Array.iteri
    (fun i frames ->
      Alcotest.(check (list string))
        (label (Printf.sprintf "frames out dev%d" i))
        frames b.o_emitted.(i))
    a.o_emitted;
  List.iter
    (fun (o : outcome) ->
      let births = o.o_injected + o.o_spawns in
      let drops = List.fold_left (fun a (_, n) -> a + n) 0 o.o_drops in
      let emitted =
        Array.fold_left (fun a l -> a + List.length l) 0 o.o_emitted
      in
      check (label "conservation") births (emitted + drops + o.o_residual))
    [ a; b ]

(* Three-way comparison: interpreted is ground truth, compiled and fused
   must each replay it exactly (hence fused == compiled by transitivity,
   checked once more directly to localize failures). *)
let check_three_way ?quarantine ~ctx ~batch ~script graph =
  let out mode =
    play ?quarantine ~ctx:(Printf.sprintf "%s b%d" ctx batch) ~batch ~mode
      ~script graph
  in
  let interp = out `Interp and compiled = out `Compile and fused = out `Fuse in
  check_outcomes_equal
    ~ctx:(Printf.sprintf "%s b%d interp/compiled" ctx batch)
    interp compiled;
  check_outcomes_equal
    ~ctx:(Printf.sprintf "%s b%d interp/fused" ctx batch)
    interp fused;
  check_outcomes_equal
    ~ctx:(Printf.sprintf "%s b%d compiled/fused" ctx batch)
    compiled fused

(* --- seeded traffic scripts -------------------------------------------- *)

(* A deterministic mix of well-formed UDP (injector-mangled) and raw
   random bytes, addressed for the standard n-interface IP router
   configurations. *)
let make_script ~seed ~ndev =
  let plan =
    match
      Fault.Plan.parse ~seed
        "ttl0=0.15,badcksum=0.15,badlen=0.1,runt=0.1,corrupt=0.3,truncate=0.2"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let inj = Fault.Injector.create plan in
  let rng = Fault.Injector.stream inj "fuzz-bytes" in
  let steps = ref [] in
  for _ = 1 to 40 do
    let iface = Fault.Rng.int rng ndev in
    let p =
      if Fault.Rng.coin rng 0.3 then begin
        let len = 1 + Fault.Rng.int rng 200 in
        let p = Packet.create len in
        for i = 0 to len - 1 do
          Packet.set_u8 p i (Fault.Rng.int rng 256)
        done;
        p
      end
      else begin
        let dst = Fault.Rng.int rng ndev in
        let p =
          Headers.Build.udp
            ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
            ~dst_eth:
              (Ethaddr.of_string_exn
                 (Printf.sprintf "00:00:c0:00:%02x:01" iface))
            ~src_ip:(Ipaddr.of_octets 10 0 iface 2)
            ~dst_ip:(Ipaddr.of_octets 10 0 dst 2)
            ()
        in
        Fault.Injector.mangle_tx inj ~stream:"fuzz-tx" p;
        Fault.Injector.mangle_wire inj ~stream:"fuzz-tx" p;
        p
      end
    in
    steps := (iface, p) :: !steps
  done;
  List.rev !steps

(* Short frames only: every length from empty to just past the Ethernet
   header plus a band around the deep classifier offsets, so tree tests
   read bytes at and beyond the truncated end on every path. *)
let short_packet_script ~seed =
  let rng = Fault.Rng.create ~seed in
  let steps = ref [] in
  for len = 0 to 48 do
    for variant = 0 to 2 do
      let p = Packet.create len in
      for i = 0 to len - 1 do
        Packet.set_u8 p i (Fault.Rng.int rng 256)
      done;
      (* bias some frames toward the interesting branches *)
      if len > 13 && variant > 0 then begin
        Packet.set_u8 p 12 0x08;
        Packet.set_u8 p 13 0x00
      end;
      if len > 30 && variant = 2 then Packet.set_u8 p 30 (1 + Fault.Rng.int rng 2);
      (* all into eth0 — the cascade reads from one device only *)
      steps := (0, p) :: !steps
    done
  done;
  List.rev !steps

(* --- pure-runtime fuzz differential on the standard router ------------- *)

let test_fuzz_differential () =
  List.iter
    (fun batch ->
      for seed = 1 to 6 do
        check_three_way
          ~ctx:(Printf.sprintf "ip-router seed %d" seed)
          ~batch
          ~script:(make_script ~seed ~ndev:2)
          (ip_router_graph ())
      done)
    batches

(* --- every example configuration --------------------------------------- *)

let example_configs () =
  (* cwd is test/ under `dune runtest`, the workspace root under
     `dune exec test/test_fdd.exe`. *)
  let dir =
    if Sys.file_exists "../examples/configs" then "../examples/configs"
    else "examples/configs"
  in
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".click")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let len = in_channel_length ic in
         let s = really_input_string ic len in
         close_in ic;
         (f, s))

let parse_exn name src =
  match Router.parse_string src with
  | Ok g -> g
  | Error e -> Alcotest.failf "%s: %s" name e

let test_example_configs_differential () =
  let configs = example_configs () in
  check_bool "found example configs" true (configs <> []);
  List.iter
    (fun (name, src) ->
      let graph = parse_exn name src in
      let ndev = max 1 (List.length (device_names graph)) in
      List.iter
        (fun batch ->
          for seed = 1 to 2 do
            check_three_way
              ~ctx:(Printf.sprintf "%s seed %d" name seed)
              ~batch
              ~script:(make_script ~seed ~ndev)
              graph
          done)
        batches)
    configs

(* The paper's full tool chain on every example configuration: xform's
   IPInputCombo/IPOutputCombo, the generated FastClassifier classes and
   the Devirtualize@@ classes run compiled and fused bodies here. *)
let test_optimized_configs_differential () =
  List.iter
    (fun (name, src) ->
      let graph =
        Oclick.Pipeline.optimize Oclick.Pipeline.All (parse_exn name src)
      in
      let ndev = max 1 (List.length (device_names graph)) in
      check_bool (name ^ ": devices found") true (ndev > 1);
      List.iter
        (fun batch ->
          for seed = 1 to 2 do
            check_three_way
              ~ctx:(Printf.sprintf "%s (All) seed %d" name seed)
              ~batch
              ~script:(make_script ~seed ~ndev)
              graph
          done)
        batches)
    (example_configs ())

(* PaintSwitch behind a dominating Paint (folded into the classifier's
   region under fusion), behind a paint with no output, and behind a
   Counter, which ends the region so the switch runs the compiled body
   of its own sem in every compiled mode. Classifier c's third leaf has
   no connected output. *)
let paint_switch_config =
  "FromDevice(eth0) -> c :: Classifier(12/0800, 12/0806, -);\n\
   c [0] -> Paint(1) -> s :: PaintSwitch;\n\
   c [1] -> Paint(5) -> s;\n\
   s [0] -> Discard;\n\
   s [1] -> Queue(64) -> ToDevice(eth0);\n\
   FromDevice(eth1) -> c2 :: Classifier(12/0800, -);\n\
   c2 [0] -> Paint(0) -> k :: Counter -> s2 :: PaintSwitch;\n\
   c2 [1] -> Paint(7) -> k;\n\
   s2 [0] -> Queue(64) -> ToDevice(eth1);\n\
   s2 [1] -> Discard;"

let test_paint_switch_differential () =
  let graph = parse_exn "paint-switch" paint_switch_config in
  List.iter
    (fun batch ->
      for seed = 1 to 3 do
        check_three_way
          ~ctx:(Printf.sprintf "paint-switch seed %d" seed)
          ~batch
          ~script:(make_script ~seed ~ndev:2)
          graph
      done)
    batches

(* --- truncated packets through cascaded classifiers -------------------- *)

(* The classifier spec (satellite of PR 8): a tree test whose span lies
   at or beyond the end of a truncated packet must behave as if the
   missing bytes were zero, identically on the interpreted tree walk,
   the per-element compiled closures, and the hoisted FDD tests —
   including the shift translation after the FromDevice edge. *)
let cascade_config =
  "FromDevice(eth0) -> c1 :: Classifier(12/0800, -);\n\
   c1 [0] -> c2 :: Classifier(30/01, 30/02, -);\n\
   c1 [1] -> Discard;\n\
   c2 [0] -> Queue(64) -> ToDevice(eth0);\n\
   c2 [1] -> Queue(64) -> ToDevice(eth1);\n\
   c2 [2] -> Discard;"

let test_short_packet_differential () =
  let graph = parse_exn "cascade" cascade_config in
  List.iter
    (fun batch ->
      for seed = 1 to 3 do
        check_three_way
          ~ctx:(Printf.sprintf "short-packets seed %d" seed)
          ~batch
          ~script:(short_packet_script ~seed)
          graph
      done)
    batches

(* --- testbed differential: obs ledger, faults, domains ----------------- *)

let testbed_plan =
  "seed=42,corrupt=0.01,truncate=0.005,ttl0=0.02,badcksum=0.03,badlen=0.01,\
   runt=0.01,nic-stall=eth1@35000:2000,pci-stall=0@40000:1000"

let testbed_run ?obs ~domains ~batch ~mode () =
  let compile, fuse = mode_flags mode in
  let plan =
    match Fault.Plan.parse testbed_plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  match
    Testbed.run ~duration_ms:20 ~warmup_ms:10 ~batch ~compile ~fuse ?obs
      ~domains ~platform:Platform.p0
      ~graph:(ip_router_graph ~n:8 ())
      ~fault:plan ~input_pps:100_000 ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "testbed (%s): %s" (mode_name mode) e

(* The fused datapath reports the identical per-hop event sequence to
   the cost hooks, so the *entire* result record — forwarding rate,
   modeled nanoseconds, outcome totals, drop reasons, fault counts,
   conservation ledger, route-table stats — must be equal, not merely
   close; and that must hold whether the graph runs on one simulated
   CPU or sharded across two. *)
let test_testbed_differential () =
  List.iter
    (fun domains ->
      List.iter
        (fun batch ->
          let ctx = Printf.sprintf "domains %d batch %d" domains batch in
          let i = testbed_run ~domains ~batch ~mode:`Interp () in
          let c = testbed_run ~domains ~batch ~mode:`Compile () in
          let f = testbed_run ~domains ~batch ~mode:`Fuse () in
          check_bool (ctx ^ ": interp = compiled") true (i = c);
          check_bool (ctx ^ ": compiled = fused") true (c = f);
          check_bool (ctx ^ ": faults were injected") true
            (f.Testbed.r_fault_counts <> []))
        [ 1; 32 ])
    [ 1; 2 ]

let test_obs_ledger_equality () =
  List.iter
    (fun batch ->
      let obs_c = Obs.create () and obs_f = Obs.create () in
      let rc = testbed_run ~obs:obs_c ~domains:1 ~batch ~mode:`Compile () in
      let rf = testbed_run ~obs:obs_f ~domains:1 ~batch ~mode:`Fuse () in
      let ctx = Printf.sprintf "batch %d" batch in
      check_bool (ctx ^ ": results equal") true (rc = rf);
      check
        (ctx ^ ": total attributed sim ns")
        (Obs.total_sim_ns obs_c) (Obs.total_sim_ns obs_f);
      check_bool
        (ctx ^ ": per-element snapshots equal")
        true
        (Obs.snapshot obs_c = Obs.snapshot obs_f);
      check_bool (ctx ^ ": ledger is non-trivial") true
        (Obs.total_sim_ns obs_c > 0))
    batches

(* --- live route add/remove through the fused Route leaf ---------------- *)

(* Satellite: a removed prefix must fall through to the next
   less-specific route (or a miss) on the very next lookup, a duplicate
   prefix must be refused, and all of it must behave identically on the
   interpreted, compiled, and FDD-fused datapaths — the fused leaf reads
   the live table, never a stale snapshot. *)

let routing_config backend =
  Printf.sprintf
    "Idle -> t :: Tee(1);\n\
     t -> rt :: %s(10.0.0.0/8 0, 10.0.4.0/24 1, 0.0.0.0/0 2);\n\
     rt [0] -> a :: Counter -> Discard;\n\
     rt [1] -> b :: Counter -> Discard;\n\
     rt [2] -> def :: Counter -> Discard;"
    backend

let bare_ip dst =
  let p =
    Headers.Build.udp ~src_ip:(Ipaddr.of_string_exn "10.9.9.9")
      ~dst_ip:(Ipaddr.of_string_exn dst) ()
  in
  Packet.pull p 14;
  (Packet.anno p).Packet.dst_ip <- Ipaddr.of_string_exn dst;
  p

let test_route_remove_falls_through () =
  List.iter
    (fun backend ->
      List.iter
        (fun mode ->
          let compile, fuse = mode_flags mode in
          let ctx = Printf.sprintf "%s (%s)" backend (mode_name mode) in
          let d =
            match
              Driver.of_string ~compile ~fuse (routing_config backend)
            with
            | Ok d -> d
            | Error e -> Alcotest.failf "%s: %s" ctx e
          in
          let el name = Option.get (Driver.element d name) in
          let stat name key = List.assoc key (el name)#stats in
          (* route through the Tee so the fused region body (entered on
             the t -> rt edge) is the code under test, not rt#push *)
          let route dst = (el "t")#push 0 (bare_ip dst) in
          let write h v =
            match (el "rt")#write_handler h v with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: write %s %S: %s" ctx h v e
          in
          route "10.0.4.9";
          check (ctx ^ ": longest prefix first") 1 (stat "b" "packets");
          (* duplicate prefix refused — shadowing can never arise *)
          check_bool
            (ctx ^ ": duplicate add refused")
            true
            (Result.is_error ((el "rt")#write_handler "add" "10.0.4.0/24 0"));
          check (ctx ^ ": table unchanged by refused add") 3
            (stat "rt" "routes");
          (* removal falls through to the covering /8 immediately *)
          write "remove" "10.0.4.0/24";
          route "10.0.4.9";
          check (ctx ^ ": falls through to /8") 1 (stat "a" "packets");
          check (ctx ^ ": /24 no longer matches") 1 (stat "b" "packets");
          (* then to the default route *)
          write "remove" "10.0.0.0/8";
          route "10.0.4.9";
          check (ctx ^ ": falls through to default") 1 (stat "def" "packets");
          (* and removing the default leaves an honest miss *)
          write "remove" "0.0.0.0/0";
          route "10.0.4.9";
          check (ctx ^ ": miss counted") 1 (stat "rt" "misses");
          check (ctx ^ ": no resurrection via stale scratch") 1
            (stat "a" "packets");
          check_bool
            (ctx ^ ": removing a missing prefix errors")
            true
            (Result.is_error ((el "rt")#write_handler "remove" "10.0.4.0/24"));
          (* re-add restores matching through the same fused leaf *)
          write "add" "10.0.4.0/24 1";
          route "10.0.4.9";
          check (ctx ^ ": re-added route matches") 2 (stat "b" "packets"))
        modes)
    [ "LinearIPLookup"; "LookupIPRoute" ]

(* --- fused-region stats surface ---------------------------------------- *)

let test_install_region_stats () =
  let devices =
    List.init 2 (fun i ->
        (new Netdevice.queue_device (Printf.sprintf "eth%d" i) ()
          :> Netdevice.t))
  in
  let fresh () =
    match Driver.instantiate ~devices (ip_router_graph ()) with
    | Error e -> Alcotest.failf "instantiate: %s" e
    | Ok d -> d
  in
  (match Oclick_compile.install (fresh ()) with
  | Error e -> Alcotest.failf "install: %s" e
  | Ok st ->
      check_bool "no regions without ~fuse" true
        (st.Oclick_compile.st_regions = []));
  match Oclick_compile.install ~fuse:true (fresh ()) with
  | Error e -> Alcotest.failf "install ~fuse: %s" e
  | Ok st ->
      let regions = st.Oclick_compile.st_regions in
      check_bool "fused at least one region" true (regions <> []);
      List.iter
        (fun (r : Fdd.region) ->
          let ctx = r.Fdd.rg_entry in
          check_bool (ctx ^ ": absorbed a member") true (r.Fdd.rg_members <> []);
          (* a straight-line region (no classifier branch) has one leaf
             and zero interior nodes; a branching one must have nodes *)
          check_bool (ctx ^ ": has actions") true (r.Fdd.rg_actions >= 1))
        regions;
      check_bool "some region has decision nodes" true
        (List.exists (fun (r : Fdd.region) -> r.Fdd.rg_nodes >= 1) regions);
      (match Oclick_compile.last_stats () with
      | Some st' -> check_bool "last_stats reflects the install" true (st' == st)
      | None -> Alcotest.fail "last_stats empty after install");
      check_bool "per-element fusion still reported" true
        (st.Oclick_compile.st_fused > 0)

(* --- the vector form ---------------------------------------------------- *)

(* Batches run through the fused diagram's vector body whenever the
   batched connection enters a region root. These configurations aim
   its three jobs — re-entrant bucket dispatch, per-packet quarantine
   re-checks, several live exits — at every batch size. Each one's exits
   feed distinct devices: frames that leave one vector by different
   exits and then merge reach a shared queue in bucket order, which the
   interpreted batched run does not promise to match. *)

let vector_batches = [ 1; 8; 32 ]

(* A 60-byte frame of seeded bytes with [fields] (offset, byte) set. *)
let frame ~rng fields =
  let p = Packet.create 60 in
  for i = 0 to 59 do
    Packet.set_u8 p i (Fault.Rng.int rng 256)
  done;
  List.iter (fun (off, v) -> Packet.set_u8 p off v) fields;
  p

(* An exit that feeds back into the region entry: the looped bucket
   re-enters the entry's vector body while the outer call is still
   dispatching its other buckets. EtherMirror swaps the Ethernet
   addresses, so a looped frame comes back with byte 6 (always 03) in
   byte 0 and leaves by the third exit. *)
let reentrant_config =
  "FromDevice(eth0) -> c :: Classifier(0/01, 0/02, 0/03, -);\n\
   c [0] -> Queue(256) -> ToDevice(eth0);\n\
   c [1] -> EtherMirror -> c;\n\
   c [2] -> Queue(256) -> ToDevice(eth1);\n\
   c [3] -> Discard;"

let reentrant_script ~seed =
  let rng = Fault.Rng.create ~seed in
  List.init 120 (fun _ ->
      let b0 = [| 0x01; 0x02; 0x02; 0x07 |].(Fault.Rng.int rng 4) in
      (0, frame ~rng [ (0, b0); (6, 0x03) ]))

let test_reentrant_flush () =
  let graph = parse_exn "re-entrant" reentrant_config in
  List.iter
    (fun batch ->
      for seed = 1 to 3 do
        check_three_way
          ~ctx:(Printf.sprintf "re-entrant seed %d" seed)
          ~batch ~script:(reentrant_script ~seed) graph
      done)
    vector_batches;
  let o =
    play ~ctx:"re-entrant" ~batch:32 ~mode:`Fuse
      ~script:(reentrant_script ~seed:1) graph
  in
  check_bool "looped frames left by the third exit" true (o.o_emitted.(1) <> [])

(* A guard that raises on frames marked 0xee at byte 1: seeded element
   faults at the entry of a fused region, so the quarantine threshold is
   crossed in the middle of a vector. *)
class faulty_guard name =
  object (self)
    inherit Oclick_runtime.Element.simple_action name
    method class_name = "Test@FaultyGuard"

    method private action p =
      if Packet.get_u8 p 1 = 0xee then failwith "injected guard bug" else Some p

    method! region_sem =
      Some
        (Oclick_runtime.Region.Guard
           {
             gd_shift = 0;
             gd_barrier = false;
             gd_run = (fun p -> Option.is_some (self#action p));
           })
  end

let () =
  Oclick_runtime.Registry.register
    ~spec:(Oclick_graph.Spec.make "Test@FaultyGuard")
    "Test@FaultyGuard"
    (fun name -> (new faulty_guard name :> Oclick_runtime.Element.t))

let faulty_config =
  "FromDevice(eth0) -> g :: Test@FaultyGuard\n\
  \  -> c :: Classifier(12/0800, 12/0806, -);\n\
   c [0] -> Queue(256) -> ToDevice(eth0);\n\
   c [1] -> Queue(256) -> ToDevice(eth1);\n\
   c [2] -> Discard;"

(* One isolated fault (frame 20), then three in a row (66-68): with a
   quarantine threshold of 3 the guard trips at frame 68, the fifth
   frame of its vector at batch 8 and 32. *)
let faulty_script () =
  let rng = Fault.Rng.create ~seed:7 in
  List.init 120 (fun i ->
      let ty = [| 0x00; 0x06; 0x42 |].(Fault.Rng.int rng 3) in
      let mark = if i = 20 || (i >= 66 && i <= 68) then 0xee else 0x00 in
      (0, frame ~rng [ (1, mark); (12, 0x08); (13, ty) ]))

let test_quarantine_mid_vector () =
  let graph = parse_exn "faulty" faulty_config in
  List.iter
    (fun batch ->
      check_three_way ~quarantine:3 ~ctx:"quarantine mid-vector" ~batch
        ~script:(faulty_script ()) graph)
    vector_batches;
  let o =
    play ~quarantine:3 ~ctx:"quarantine" ~batch:32 ~mode:`Fuse
      ~script:(faulty_script ()) graph
  in
  check "faults contained before the trip" 4 o.o_faults;
  check_bool "later frames dropped by quarantine" true
    (List.mem_assoc "quarantined element" o.o_drops)

(* Four live exits from one region — a route leaf and three connections
   — with the IPv4 route bucket dominant but never first to arrive, so
   the dominant bucket compacts in place while the others are copied
   out ahead of it. *)
let exits_config =
  "FromDevice(eth0) -> c :: Classifier(12/0800, 12/0806, 12/86dd, -);\n\
   c [0] -> Strip(14) -> CheckIPHeader() -> GetIPAddress(16)\n\
  \  -> rt :: LookupIPRoute(10.0.0.0/24 0, 10.0.1.0/24 1, 0.0.0.0/0 2);\n\
   rt [0] -> Queue(256) -> ToDevice(eth0);\n\
   rt [1] -> Queue(256) -> ToDevice(eth1);\n\
   rt [2] -> Discard;\n\
   c [1] -> Queue(256) -> ToDevice(eth2);\n\
   c [2] -> Queue(256) -> ToDevice(eth3);\n\
   c [3] -> Discard;"

let exits_script ~seed =
  let rng = Fault.Rng.create ~seed in
  let host net = Ipaddr.of_octets 10 0 net (1 + Fault.Rng.int rng 200) in
  List.init 160 (fun i ->
      let p =
        if i mod 8 = 0 then frame ~rng [ (12, 0x08); (13, 0x06) ]
        else
          match Fault.Rng.int rng 7 with
          | 0 -> frame ~rng [ (12, 0x86); (13, 0xdd) ]
          | 1 -> frame ~rng [ (12, 0x12); (13, 0x34) ]
          | 2 ->
              Headers.Build.udp ~src_ip:(host 9)
                ~dst_ip:(Ipaddr.of_octets 192 168 1 1) ()
          | 3 | 4 -> Headers.Build.udp ~src_ip:(host 9) ~dst_ip:(host 1) ()
          | _ -> Headers.Build.udp ~src_ip:(host 9) ~dst_ip:(host 0) ()
      in
      (0, p))

let test_many_exits () =
  let graph = parse_exn "exits" exits_config in
  List.iter
    (fun batch ->
      for seed = 1 to 3 do
        check_three_way
          ~ctx:(Printf.sprintf "four exits seed %d" seed)
          ~batch ~script:(exits_script ~seed) graph
      done)
    vector_batches;
  let o =
    play ~ctx:"four exits" ~batch:32 ~mode:`Fuse ~script:(exits_script ~seed:1)
      graph
  in
  Array.iteri
    (fun i frames ->
      check_bool (Printf.sprintf "frames left for dev%d" i) true (frames <> []))
    o.o_emitted

(* The region counter is bumped by the vector body too: at batch 32 the
   cascade's single region — rooted at its first stage, the later stages
   absorbed rather than given diagrams of their own — counts every
   offered frame, fall-throughs included. *)
let cascade_stages = 4

let counted_cascade_config =
  String.concat ""
    (List.init cascade_stages (fun i ->
         Printf.sprintf
           "k%d :: Classifier(12/0800 %d/%02x, -);\nk%d [1] -> Discard;\n" i
           (42 + i) (0xa0 + i) i))
  ^ "FromDevice(eth0) -> k0 -> k1 -> k2 -> k3 -> Queue(512) -> ToDevice(eth1);"

(* Every fourth frame falls through at a seeded stage. *)
let counted_cascade_script () =
  let rng = Fault.Rng.create ~seed:3 in
  List.init 200 (fun i ->
      let fall = if i mod 4 = 0 then Fault.Rng.int rng cascade_stages else -1 in
      let stages =
        List.init cascade_stages (fun s ->
            (42 + s, if s = fall then 0 else 0xa0 + s))
      in
      (0, frame ~rng ((12, 0x08) :: (13, 0x00) :: stages)))

let test_region_counts_vectors () =
  let graph = parse_exn "counted cascade" counted_cascade_config in
  let script = counted_cascade_script () in
  check_three_way ~ctx:"counted cascade" ~batch:32 ~script graph;
  let o = play ~ctx:"counted cascade" ~batch:32 ~mode:`Fuse ~script graph in
  match Oclick_compile.last_stats () with
  | None -> Alcotest.fail "no compile stats"
  | Some st -> (
      match st.Oclick_compile.st_regions with
      | [ r ] ->
          Alcotest.(check string)
            "the region roots at the first stage" "k0" r.Fdd.rg_entry;
          check "later stages absorbed" (cascade_stages - 1)
            (List.length r.Fdd.rg_members);
          check "every offered frame counted" o.o_injected r.Fdd.rg_packets
      | rs ->
          Alcotest.failf "%d regions on the cascade, want 1" (List.length rs))

let () =
  Alcotest.run "fdd"
    [
      ( "differential",
        [
          Alcotest.test_case "pure-runtime fuzz" `Quick test_fuzz_differential;
          Alcotest.test_case "example configurations" `Quick
            test_example_configs_differential;
          Alcotest.test_case "optimized example configurations" `Quick
            test_optimized_configs_differential;
          Alcotest.test_case "paint switch" `Quick
            test_paint_switch_differential;
          Alcotest.test_case "truncated packets" `Quick
            test_short_packet_differential;
          Alcotest.test_case "testbed across domains" `Quick
            test_testbed_differential;
          Alcotest.test_case "obs ledger equality" `Quick
            test_obs_ledger_equality;
        ] );
      ( "vector",
        [
          Alcotest.test_case "re-entrant exit flush" `Quick
            test_reentrant_flush;
          Alcotest.test_case "quarantine mid-vector" `Quick
            test_quarantine_mid_vector;
          Alcotest.test_case "four live exits" `Quick test_many_exits;
          Alcotest.test_case "region counts every vector" `Quick
            test_region_counts_vectors;
        ] );
      ( "routing",
        [
          Alcotest.test_case "remove falls through live" `Quick
            test_route_remove_falls_through;
        ] );
      ( "surface",
        [
          Alcotest.test_case "install region stats" `Quick
            test_install_region_stats;
        ] );
    ]
