(* Tests for the fault-injection subsystem: plan parsing, RNG
   determinism, the degradation layer (contained faults, quarantine),
   fuzzed traffic through the full IP router with packet-conservation
   checks, and testbed-level determinism and differential runs. *)

module Fault = Oclick_fault
module Driver = Oclick_runtime.Driver
module Hooks = Oclick_runtime.Hooks
module Registry = Oclick_runtime.Registry
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform

let () = Oclick_elements.register_all ()
let () = Oclick_compile.register ()
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- plan parsing ----------------------------------------------------------- *)

let test_plan_parse_round_trip () =
  let spec =
    "seed=42,corrupt=0.01,truncate=0.005,ttl0=0.01,badcksum=0.02,badlen=0.01,\
     runt=0.01,nic-stall=eth1@5000:200,pci-stall=0@100:50,quarantine=4"
  in
  match Fault.Plan.parse spec with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p -> (
      check "seed" 42 p.Fault.Plan.p_seed;
      check "quarantine" 4 p.Fault.Plan.p_quarantine;
      Alcotest.(check (float 0.)) "corrupt" 0.01 p.Fault.Plan.p_corrupt;
      (match p.Fault.Plan.p_nic_stall with
      | [ w ] ->
          check_str "dev" "eth1" w.Fault.Plan.w_dev;
          check "start ns" 5_000_000 w.Fault.Plan.w_start_ns;
          check "len ns" 200_000 w.Fault.Plan.w_len_ns
      | _ -> Alcotest.fail "expected one nic-stall window");
      (* to_string reparses to the same plan *)
      match Fault.Plan.parse (Fault.Plan.to_string p) with
      | Ok p' -> check_bool "round trip" true (p = p')
      | Error e -> Alcotest.failf "reparse: %s" e)

let test_plan_parse_errors () =
  let bad spec =
    check_bool
      (Printf.sprintf "rejects %S" spec)
      true
      (Result.is_error (Fault.Plan.parse spec))
  in
  bad "corrupt=1.5";
  bad "corrupt=zero";
  bad "nosuchkey=1";
  bad "nic-stall=eth0";
  bad "nic-stall=@5:5";
  bad "corrupt";
  bad "quarantine=-1";
  (* at most one generation fault per packet: cumulative probability
     over the generation faults must not exceed one *)
  bad "ttl0=0.5,badcksum=0.4,runt=0.2"

let test_plan_empty_and_seed_override () =
  (match Fault.Plan.parse "" with
  | Ok p ->
      check_bool "empty spec is the null plan" true (Fault.Plan.is_null p)
  | Error e -> Alcotest.failf "empty: %s" e);
  match Fault.Plan.parse ~seed:99 "seed=7,corrupt=0.1" with
  | Ok p -> check "?seed wins" 99 p.Fault.Plan.p_seed
  | Error e -> Alcotest.failf "seed: %s" e

(* --- rng --------------------------------------------------------------------- *)

let draws rng n = List.init n (fun _ -> Fault.Rng.bits rng)

let test_rng_deterministic () =
  let a = Fault.Rng.create ~seed:123 and b = Fault.Rng.create ~seed:123 in
  Alcotest.(check (list int)) "same seed, same stream" (draws a 50) (draws b 50);
  let c = Fault.Rng.create ~seed:124 in
  check_bool "nearby seed differs" true
    (draws (Fault.Rng.create ~seed:123) 10 <> draws c 10)

let test_rng_split_stable () =
  (* A child stream's identity depends on the parent's seed and the
     label, not on how much the parent has been drawn from. *)
  let p1 = Fault.Rng.create ~seed:5 in
  let early = Fault.Rng.split p1 "tx:eth0" in
  let p2 = Fault.Rng.create ~seed:5 in
  let _ = draws p2 1000 in
  let late = Fault.Rng.split p2 "tx:eth0" in
  Alcotest.(check (list int))
    "split ignores draw position" (draws early 20) (draws late 20);
  let other = Fault.Rng.split (Fault.Rng.create ~seed:5) "tx:eth1" in
  check_bool "labels separate streams" true
    (draws (Fault.Rng.split (Fault.Rng.create ~seed:5) "tx:eth0") 10
    <> draws other 10)

let test_rng_bounds () =
  let rng = Fault.Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Fault.Rng.int rng 7 in
    check_bool "int in range" true (v >= 0 && v < 7);
    let f = Fault.Rng.float rng in
    check_bool "float in range" true (f >= 0. && f < 1.)
  done

(* --- degradation: contained faults and quarantine ----------------------------- *)

(* An element whose push always raises. *)
let register_faulty () =
  let restore = Registry.snapshot () in
  Registry.register
    ~spec:(Oclick_graph.Spec.make ~ports:"1/1" "Test@Faulty")
    "Test@Faulty"
    (fun name ->
      (object
         inherit Oclick_runtime.Element.base name
         method class_name = "Test@Faulty"
         method! push _ _ = failwith "injected element bug"
       end
        :> Oclick_runtime.Element.t));
  restore

let test_faulty_element_is_contained_then_quarantined () =
  let restore = register_faulty () in
  Fun.protect ~finally:restore @@ fun () ->
  let drops = Hashtbl.create 4 and faults = ref 0 and warns = ref [] in
  let hooks =
    {
      Hooks.null with
      Hooks.on_drop =
        (fun ~idx:_ ~cls:_ ~reason _ ->
          Hashtbl.replace drops reason
            (1 + Option.value ~default:0 (Hashtbl.find_opt drops reason)));
      on_fault = (fun ~idx:_ ~cls:_ ~reason:_ -> incr faults);
      on_warn = (fun ~src msg -> warns := (src, msg) :: !warns);
    }
  in
  match
    Driver.of_string ~hooks
      "InfiniteSource(LIMIT 20) -> f :: Test@Faulty -> Discard;"
  with
  | Error e -> Alcotest.failf "instantiate: %s" e
  | Ok d ->
      check_bool "run converges despite faults" true (Driver.run_until_idle d);
      (* default threshold 8: the first 8 pushes fault, the remaining 12
         are dropped without touching the quarantined element *)
      check "faults contained" 8 !faults;
      check "fault drops" 8
        (Option.value ~default:0 (Hashtbl.find_opt drops "element fault"));
      check "quarantine drops" 12
        (Option.value ~default:0
           (Hashtbl.find_opt drops "quarantined element"));
      (match Driver.fault_report d with
      | [ (name, n, quarantined) ] ->
          check_str "faulty element" "f" name;
          check "fault count" 8 n;
          check_bool "quarantined" true quarantined
      | r -> Alcotest.failf "unexpected fault report (%d entries)" (List.length r));
      check_bool "quarantine warned" true
        (List.exists
           (fun (src, msg) ->
             src = "f"
             && String.length msg >= 11
             && String.sub msg 0 11 = "quarantined")
           !warns)

let test_quarantine_threshold_override () =
  let restore = register_faulty () in
  Fun.protect ~finally:restore @@ fun () ->
  match
    Driver.of_string ~quarantine:2
      "InfiniteSource(LIMIT 10) -> f :: Test@Faulty -> Discard;"
  with
  | Error e -> Alcotest.failf "instantiate: %s" e
  | Ok d -> (
      check_bool "converges" true (Driver.run_until_idle d);
      match Driver.fault_report d with
      | [ (_, n, quarantined) ] ->
          check "quarantined after 2" 2 n;
          check_bool "quarantined" true quarantined
      | _ -> Alcotest.fail "expected one faulting element")

let test_run_until_idle_reports_non_convergence () =
  let warned = ref false in
  let hooks =
    { Hooks.null with Hooks.on_warn = (fun ~src:_ _ -> warned := true) }
  in
  match Driver.of_string ~hooks "InfiniteSource -> Discard;" with
  | Error e -> Alcotest.failf "instantiate: %s" e
  | Ok d ->
      check_bool "unbounded source does not converge" false
        (Driver.run_until_idle ~max_rounds:100 d);
      check_bool "non-convergence warned" true !warned

(* --- fuzz: mangled packets through the full IP router -------------------------- *)

let ip_router_graph ?(n = 2) () =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces n))

let host_udp ~src_if ~dst_ip =
  Headers.Build.udp
    ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
    ~dst_eth:
      (Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:00:%02x:01" src_if))
    ~src_ip:(Ipaddr.of_octets 10 0 src_if 2)
    ~dst_ip:(Ipaddr.of_string_exn dst_ip)
    ()

(* One seeded fuzz round: feed a mix of injector-mangled UDP and pure
   random bytes into both interfaces, drive the router to idle, and
   check that every packet is accounted for — no exception escapes, no
   packet leaks. *)
let fuzz_round seed =
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
  let drops = ref 0 and spawns = ref 0 in
  let hooks =
    {
      Hooks.null with
      Hooks.on_drop = (fun ~idx:_ ~cls:_ ~reason:_ _ -> incr drops);
      on_spawn = (fun ~idx:_ ~cls:_ _ -> incr spawns);
    }
  in
  let devs =
    Array.init 2 (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let d =
    match Driver.instantiate ~hooks ~devices (ip_router_graph ()) with
    | Ok d -> d
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  let injected = ref 0 in
  for _ = 1 to 40 do
    let iface = Fault.Rng.int rng 2 in
    let p =
      if Fault.Rng.coin rng 0.3 then begin
        (* pure garbage of random length *)
        let len = 1 + Fault.Rng.int rng 200 in
        let p = Packet.create len in
        for i = 0 to len - 1 do
          Packet.set_u8 p i (Fault.Rng.int rng 256)
        done;
        p
      end
      else begin
        let dst_ip = if Fault.Rng.coin rng 0.5 then "10.0.1.2" else "10.0.0.2" in
        let p = host_udp ~src_if:iface ~dst_ip in
        Fault.Injector.mangle_tx inj ~stream:"fuzz-tx" p;
        Fault.Injector.mangle_wire inj ~stream:"fuzz-tx" p;
        p
      end
    in
    incr injected;
    devs.(iface)#inject p;
    (* interleave running with injection, like a live router *)
    if Fault.Rng.coin rng 0.25 then ignore (Driver.run_tasks_once d)
  done;
  check_bool "router goes idle" true (Driver.run_until_idle d);
  let collected = ref 0 in
  Array.iter
    (fun dev ->
      let rec drain () =
        match dev#collect with
        | Some _ ->
            incr collected;
            drain ()
        | None -> ()
      in
      drain ())
    devs;
  let residual = ref 0 in
  for i = 0 to Driver.size d - 1 do
    List.iter
      (fun (k, v) ->
        if k = "length" || k = "pending" then residual := !residual + v)
      (Driver.element_at d i)#stats
  done;
  let births = !injected + !spawns in
  let deaths = !collected + !drops + !residual in
  if births <> deaths then
    Alcotest.failf
      "seed %d: conservation violated: %d injected + %d spawned <> %d \
       emitted + %d dropped + %d residual"
      seed !injected !spawns !collected !drops !residual

let test_fuzz_conservation () =
  for seed = 1 to 25 do
    fuzz_round seed
  done

(* A frame truncated after the router's header check is a reasoned drop,
   never an element fault. [oclick-run --fault truncate=...] mangles
   every hop, so a frame can be cut after CheckIPHeader, on its way into
   DecIPTTL, FixIPSrc, IPGWOptions or IPOutputCombo. Run on the base
   2-interface router and on its "All" tool-chain form, in every mode
   and at batch 1 and 32: the ports' mangle step runs in each. *)
let test_truncated_frames_are_reasoned_drops () =
  let base = ip_router_graph () in
  let all = Oclick.Pipeline.optimize Oclick.Pipeline.All (ip_router_graph ()) in
  let run (rname, graph) (mname, compile, fuse) batch =
    let tag = Printf.sprintf "%s %s batch %d" rname mname batch in
    let plan =
      match Fault.Plan.parse ~seed:1 "truncate=0.2" with
      | Ok p -> p
      | Error e -> Alcotest.failf "plan: %s" e
    in
    let inj = Fault.Injector.create plan in
    let mangle p = Fault.Injector.mangle_wire inj ~stream:"run" p in
    let faults = ref [] and drops = ref 0 and spawns = ref 0 in
    let hooks =
      {
        Hooks.null with
        Hooks.on_drop = (fun ~idx:_ ~cls:_ ~reason:_ _ -> incr drops);
        on_spawn = (fun ~idx:_ ~cls:_ _ -> incr spawns);
        on_fault = (fun ~idx:_ ~cls ~reason -> faults := (cls ^ ": " ^ reason) :: !faults);
      }
    in
    let devs =
      Array.init 2 (fun i ->
          new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
    in
    let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
    let d =
      match
        Driver.instantiate ~hooks ~devices ~mangle ~batch ~compile ~fuse graph
      with
      | Ok d -> d
      | Error e -> Alcotest.failf "%s: instantiate: %s" tag e
    in
    let injected = ref 0 in
    let inject iface p =
      incr injected;
      devs.(iface)#inject p
    in
    (* Unsolicited ARP replies from the host on each side; some are cut
       on the way in too. *)
    for k = 0 to 15 do
      let iface = k mod 2 in
      inject iface
        (Headers.Build.arp_reply
           ~src_eth:(Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:bb:%02x:02" iface))
           ~src_ip:(Ipaddr.of_octets 10 0 iface 2)
           ~dst_eth:(Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:00:%02x:01" iface))
           ~dst_ip:(Ipaddr.of_octets 10 0 iface 1))
    done;
    ignore (Driver.run_until_idle d);
    for k = 1 to 500 do
      let iface = k mod 2 in
      inject iface
        (host_udp ~src_if:iface ~dst_ip:(Printf.sprintf "10.0.%d.2" (1 - iface)));
      if k mod 16 = 0 then ignore (Driver.run_until_idle d)
    done;
    check_bool (tag ^ ": router goes idle") true (Driver.run_until_idle d);
    let forwarded = ref 0 and emitted = ref 0 in
    Array.iter
      (fun dev ->
        let rec drain () =
          match dev#collect with
          | Some f ->
              incr emitted;
              if
                Packet.length f >= Headers.Ether.header_length
                && Headers.Ether.ethertype f = Headers.Ether.ethertype_ip
              then incr forwarded;
              drain ()
          | None -> ()
        in
        drain ())
      devs;
    let residual = ref 0 in
    for i = 0 to Driver.size d - 1 do
      List.iter
        (fun (k, v) -> if k = "length" || k = "pending" then residual := !residual + v)
        (Driver.element_at d i)#stats
    done;
    Alcotest.(check (list string)) (tag ^ ": no element fault") [] !faults;
    check_bool (tag ^ ": frames forwarded") true (!forwarded > 0);
    check (tag ^ ": every frame forwarded or dropped with a reason")
      (!injected + !spawns) (!emitted + !drops + !residual);
    check (tag ^ ": no element quarantined") 0
      (List.length
         (List.filter (fun (_, _, q) -> q) (Driver.fault_report d)))
  in
  List.iter
    (fun router ->
      List.iter
        (fun mode -> List.iter (run router mode) [ 1; 32 ])
        [ ("interp", false, false); ("compiled", true, false); ("fused", true, true) ])
    [ ("base", base); ("all", all) ]

(* --- testbed fault runs --------------------------------------------------------- *)

let testbed_plan =
  "seed=42,corrupt=0.01,truncate=0.005,ttl0=0.02,badcksum=0.03,badlen=0.01,\
   runt=0.01,nic-stall=eth1@35000:2000,pci-stall=0@40000:1000"

let testbed_run ?(plan = testbed_plan) graph =
  let plan =
    match Fault.Plan.parse plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  match
    Testbed.run ~duration_ms:20 ~warmup_ms:10 ~platform:Platform.p0 ~graph
      ~fault:plan ~input_pps:100_000 ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "testbed: %s" e

let base_graph () =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces 8))

let test_testbed_fault_run_completes () =
  let r = testbed_run (base_graph ()) in
  check_bool "still forwards" true (r.Testbed.r_forwarded_pps > 0.);
  check_bool "faults were injected" true (r.Testbed.r_fault_counts <> []);
  List.iter
    (fun kind ->
      check_bool
        (Printf.sprintf "injected %s faults" kind)
        true
        (List.mem_assoc kind r.Testbed.r_fault_counts))
    [ "corrupt"; "ttl0"; "badcksum" ];
  (* the conservation ledger balanced, or run would have returned Error *)
  let c = r.Testbed.r_conservation in
  check "ledger balances" c.Testbed.cv_births
    (c.Testbed.cv_deliveries + c.Testbed.cv_nic_drops + c.Testbed.cv_hook_drops
   + c.Testbed.cv_residual);
  check_bool "mangled traffic is dropped with reasons" true
    (r.Testbed.r_drop_reasons_total <> [])

let test_testbed_fault_run_deterministic () =
  let a = testbed_run (base_graph ()) and b = testbed_run (base_graph ()) in
  check_bool "identical results for identical seeds" true (a = b);
  (* a different seed produces a different fault schedule (later
     settings win, so append) *)
  let c = testbed_run ~plan:(testbed_plan ^ ",seed=43") (base_graph ()) in
  check_bool "different seed differs" true
    (c.Testbed.r_fault_counts <> a.Testbed.r_fault_counts
    || c.Testbed.r_outcomes_total <> a.Testbed.r_outcomes_total)

(* Satellite: the optimized pipeline must agree with the unoptimized
   configuration packet-for-packet under the same fault seed. Compared
   on drain-complete totals: at a non-overload rate every packet
   reaches a terminal outcome, so the totals are timing-independent. *)
let test_testbed_differential_under_faults () =
  let base = base_graph () in
  let all = Oclick.Pipeline.optimize Oclick.Pipeline.All (base_graph ()) in
  let rb = testbed_run base and ra = testbed_run all in
  check "same deliveries" rb.Testbed.r_outcomes_total.Testbed.oc_sent
    ra.Testbed.r_outcomes_total.Testbed.oc_sent;
  check "same element faults"
    rb.Testbed.r_outcomes_total.Testbed.oc_element_fault
    ra.Testbed.r_outcomes_total.Testbed.oc_element_fault;
  check "same injected faults" 0
    (compare rb.Testbed.r_fault_counts ra.Testbed.r_fault_counts);
  let total_drops (r : Testbed.result) =
    List.fold_left (fun a (_, n) -> a + n) 0 r.Testbed.r_drop_reasons_total
    + r.Testbed.r_outcomes_total.Testbed.oc_fifo_overflow
    + r.Testbed.r_outcomes_total.Testbed.oc_missed_frame
  in
  check "same total drops" (total_drops rb) (total_drops ra)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "round trip" `Quick test_plan_parse_round_trip;
          Alcotest.test_case "errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "empty and seed" `Quick
            test_plan_empty_and_seed_override;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split stable" `Quick test_rng_split_stable;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "contained and quarantined" `Quick
            test_faulty_element_is_contained_then_quarantined;
          Alcotest.test_case "threshold override" `Quick
            test_quarantine_threshold_override;
          Alcotest.test_case "non-convergence reported" `Quick
            test_run_until_idle_reports_non_convergence;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "conservation" `Quick test_fuzz_conservation;
          Alcotest.test_case "truncated frames are reasoned drops" `Quick
            test_truncated_frames_are_reasoned_drops;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "fault run completes" `Quick
            test_testbed_fault_run_completes;
          Alcotest.test_case "deterministic" `Quick
            test_testbed_fault_run_deterministic;
          Alcotest.test_case "differential under faults" `Quick
            test_testbed_differential_under_faults;
        ] );
    ]
