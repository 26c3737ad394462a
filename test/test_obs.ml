(* Tests for the per-element observability layer: trace ring bounds,
   the JSON layer and report schema, counter semantics under the plain
   driver, per-element packet conservation at several batch sizes, the
   obs-totals == testbed-ledger regression, counter reset between
   consecutive runs sharing one accumulator, a differential check that
   observation changes no forwarding outcome, the per-port cells against
   a per-event reference ledger, the sampled wall clock against the
   exact one, and the observer's allocation per packet. *)

module Obs = Oclick_obs
module Hooks = Oclick_runtime.Hooks
module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Fault = Oclick_fault

let () = Oclick_elements.register_all ()
let () = Oclick_compile.register ()
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- trace ring ------------------------------------------------------------- *)

let transfer_to idx =
  {
    Hooks.tr_src_idx = 0;
    tr_src_class = "A";
    tr_src_port = 0;
    tr_dst_idx = idx;
    tr_dst_class = "B";
    tr_dst_port = 0;
    tr_direct = false;
    tr_pull = false;
  }

let test_trace_ring_bounds () =
  (try
     ignore (Obs.Trace.create 0);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let t = Obs.create ~trace:4 () in
  let hooks = Obs.hooks t Hooks.null in
  let p = Packet.create 64 in
  for i = 1 to 10 do
    hooks.Hooks.on_transfer (transfer_to i) p
  done;
  match Obs.trace t with
  | None -> Alcotest.fail "trace enabled but absent"
  | Some tr ->
      check "capacity" 4 (Obs.Trace.capacity tr);
      check "seen counts overwritten events" 10 (Obs.Trace.seen tr);
      check "length is bounded" 4 (Obs.Trace.length tr);
      let evs = Obs.Trace.events tr in
      check "retains the last capacity events" 4 (List.length evs);
      List.iteri
        (fun i (ev : Obs.Trace.event) ->
          check "oldest first" (6 + i) ev.Obs.Trace.ev_seq;
          check "records destination" (7 + i) ev.Obs.Trace.ev_dst_idx)
        evs;
      Obs.reset t;
      check "reset clears the ring" 0 (Obs.Trace.seen tr)

(* --- json ------------------------------------------------------------------- *)

let test_json_round_trip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("name", String "a \"quoted\"\nvalue");
        ("n", Int (-42));
        ("x", Float 1.5);
        ("ok", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Obj [ ("y", Int 2) ]; List [] ]);
      ]
  in
  (match of_string (to_string v) with
  | Ok v' -> check_bool "round trip" true (v = v')
  | Error e -> Alcotest.failf "reparse: %s" e);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "rejects %S" s)
        true
        (Result.is_error (of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "{\"a\":1} trailing"; "'a'" ];
  match of_string "{\"a\": {\"b\": [1, 2]}}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
      match Option.bind (member "a" v) (member "b") with
      | Some (List [ Int 1; Int 2 ]) -> ()
      | _ -> Alcotest.fail "member lookup")

(* --- counters under the plain driver ----------------------------------------- *)

let run_counted config =
  let obs = Obs.create () in
  let hooks = Obs.hooks obs Hooks.null in
  match Driver.of_string ~hooks config with
  | Error e -> Alcotest.failf "instantiate: %s" e
  | Ok d ->
      List.iter
        (fun i ->
          Obs.set_meta obs ~idx:i
            ~name:(Driver.element_at d i)#name
            ~cls:(Driver.element_at d i)#class_name)
        (List.init (Driver.size d) Fun.id);
      check_bool "idle" true (Driver.run_until_idle d);
      (obs, d)

let stats_of obs name =
  match List.find_opt (fun s -> s.Obs.s_name = name) (Obs.snapshot obs) with
  | Some s -> s
  | None -> Alcotest.failf "no stats for %s" name

let test_driver_counters () =
  let obs, _ =
    run_counted "src :: InfiniteSource(LIMIT 20) -> c :: Counter -> d :: Discard;"
  in
  let src = stats_of obs "src" and c = stats_of obs "c" and d = stats_of obs "d" in
  check "source emits" 20 src.Obs.s_out;
  check "source takes nothing in" 0 src.Obs.s_in;
  check "counter in" 20 c.Obs.s_in;
  check "counter out" 20 c.Obs.s_out;
  check "counter pushes" 20 c.Obs.s_pushes;
  check "discard in" 20 d.Obs.s_in;
  check "discard drops" 20 d.Obs.s_drops;
  check_bool "drop reason recorded" true
    (List.mem_assoc "discarded" d.Obs.s_drop_reasons);
  check_bool "global drop table matches" true
    (Obs.drop_reasons obs = [ ("discarded", 20) ]);
  check "port totals match" 20 (List.assoc 0 c.Obs.s_in_ports);
  check "total drops" 20 (Obs.total_drops obs)

(* --- per-element conservation through the IP router --------------------------- *)

let host_udp ~src_if ~dst_ip =
  Headers.Build.udp
    ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
    ~dst_eth:
      (Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:00:%02x:01" src_if))
    ~src_ip:(Ipaddr.of_octets 10 0 src_if 2)
    ~dst_ip:(Ipaddr.of_string_exn dst_ip)
    ()

(* Every element's books must balance: packets in (hooked transfers in,
   spawns, and packets sourced from a device or thin air) equal packets
   out (hooked transfers out, drops, packets still held, and packets
   handed to a device). Checked per element from the observability
   snapshot plus the element's own statistics — at several batch sizes,
   since scalar and batched transfers take different accounting paths. *)
let conservation_round ~batch =
  let obs = Obs.create () in
  let hooks = Obs.hooks obs Hooks.null in
  let devs =
    Array.init 2 (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let graph =
    Oclick.Ip_router.graph
      (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces 2))
  in
  let d =
    match Driver.instantiate ~hooks ~devices ~batch graph with
    | Ok d -> d
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  List.iter
    (fun i ->
      Obs.set_meta obs ~idx:i
        ~name:(Driver.element_at d i)#name
        ~cls:(Driver.element_at d i)#class_name)
    (List.init (Driver.size d) Fun.id);
  let injected = ref 0 in
  for k = 1 to 60 do
    let iface = k mod 2 in
    let dst_ip = if k mod 3 = 0 then "10.0.0.2" else "10.0.1.2" in
    incr injected;
    devs.(iface)#inject (host_udp ~src_if:iface ~dst_ip);
    if k mod 5 = 0 then ignore (Driver.run_tasks_once d)
  done;
  check_bool "router goes idle" true (Driver.run_until_idle d);
  let collected = ref 0 in
  Array.iter
    (fun dev ->
      let rec drain () =
        match dev#collect with Some _ -> incr collected; drain () | None -> ()
      in
      drain ())
    devs;
  let spawns = ref 0 and residual = ref 0 in
  List.iter
    (fun s ->
      spawns := !spawns + s.Obs.s_spawns;
      let st = (Driver.element_at d s.Obs.s_idx)#stats in
      let stat k = Option.value ~default:0 (List.assoc_opt k st) in
      let sourced =
        match s.Obs.s_class with
        | "PollDevice" | "FromDevice" -> stat "received"
        | "InfiniteSource" | "RatedSource" -> stat "sent"
        | _ -> 0
      in
      let transmitted =
        match s.Obs.s_class with "ToDevice" -> stat "sent" | _ -> 0
      in
      let held = stat "length" + stat "pending" in
      residual := !residual + held;
      let inflow = s.Obs.s_in + s.Obs.s_spawns + sourced in
      let outflow = s.Obs.s_out + s.Obs.s_drops + held + transmitted in
      if inflow <> outflow then
        Alcotest.failf
          "batch %d: %s (%s): %d in + %d spawned + %d sourced <> %d out + %d \
           dropped + %d held + %d transmitted"
          batch s.Obs.s_name s.Obs.s_class s.Obs.s_in s.Obs.s_spawns sourced
          s.Obs.s_out s.Obs.s_drops held transmitted)
    (Obs.snapshot obs);
  (* and globally: every injected or spawned packet was delivered,
     dropped through the hooks, or is still held in some element *)
  check
    (Printf.sprintf "batch %d: global conservation" batch)
    (!injected + !spawns)
    (!collected + Obs.total_drops obs + !residual)

let test_element_conservation () =
  List.iter (fun batch -> conservation_round ~batch) [ 1; 8; 32 ]

(* --- obs totals vs the testbed ledger ----------------------------------------- *)

let router_graph n =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces n))

let testbed_run ?obs ?fault ?(batch = 1) () =
  match
    Testbed.run ~duration_ms:15 ~warmup_ms:0 ?obs ?fault ~batch
      ~platform:Platform.p0 ~graph:(router_graph 8) ~input_pps:150_000 ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "testbed: %s" e

(* With no warmup the observation window is the whole run, so the
   per-element columns must reproduce the ledger totals exactly — at
   every batch size, since scalar and batched transfers are charged
   through different code paths. *)
let test_obs_matches_ledger () =
  List.iter
    (fun batch ->
      let obs = Obs.create () in
      let r = testbed_run ~obs ~batch () in
      let tag fmt = Printf.sprintf ("batch %d: " ^^ fmt) batch in
      check (tag "per-element ns sum to the aggregate")
        (int_of_float r.Testbed.r_model_ns)
        (Obs.total_sim_ns obs);
      check_bool
        (tag "drop tables agree")
        true
        (Obs.drop_reasons obs = r.Testbed.r_drop_reasons_total);
      check (tag "hook-counted drops equal the ledger's")
        r.Testbed.r_conservation.Testbed.cv_hook_drops
        (Obs.total_drops obs))
    [ 1; 8; 32 ]

(* An optimizer pass can leave dead slots in the router it returns, so
   its indices differ from the dense ones the driver instantiates (and
   every hook reports). Regression: on such a graph the metadata and
   the NIC cost attribution must land on the same rows as the transfer
   counters — each device element carries both its packets and its
   cycles, on one row with the right class. *)
let test_sparse_graph_attribution () =
  let opt =
    Oclick.Pipeline.devirtualize (Oclick.Pipeline.fastclassify (router_graph 8))
  in
  let obs = Obs.create () in
  (match
     Testbed.run ~duration_ms:15 ~warmup_ms:0 ~obs ~platform:Platform.p0
       ~graph:opt ~input_pps:150_000 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "testbed: %s" e);
  let polls =
    List.filter
      (fun s ->
        Oclick_hw.Cost_model.strip_generated s.Obs.s_class = "PollDevice")
      (Obs.snapshot obs)
  in
  check "all poll devices have rows" 8 (List.length polls);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "%s moved packets" s.Obs.s_name)
        true (s.Obs.s_out > 0);
      check_bool
        (Printf.sprintf "%s was charged its NIC work" s.Obs.s_name)
        true
        (s.Obs.s_sim_ns > 0))
    polls

(* --- reset between consecutive runs ------------------------------------------- *)

let test_reset_between_runs () =
  let obs = Obs.create () in
  let _ = testbed_run ~obs () in
  let first = Obs.snapshot obs in
  let first_ns = Obs.total_sim_ns obs in
  let r = testbed_run ~obs () in
  check_bool "second run's snapshot is identical, not accumulated" true
    (Obs.snapshot obs = first);
  check "second run's total is identical" first_ns (Obs.total_sim_ns obs);
  check "still equal to the aggregate" (int_of_float r.Testbed.r_model_ns)
    (Obs.total_sim_ns obs)

(* --- observation is free of side effects --------------------------------------- *)

let test_observation_changes_nothing () =
  let bare = testbed_run () in
  let obs = Obs.create ~trace:64 () in
  let observed = testbed_run ~obs () in
  check_bool "identical results with observation on" true (bare = observed);
  let plan =
    match
      Fault.Plan.parse
        "seed=42,corrupt=0.01,truncate=0.005,ttl0=0.02,badcksum=0.03"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let bare_f = testbed_run ~fault:plan () in
  let obs' = Obs.create ~trace:64 () in
  let observed_f = testbed_run ~obs:obs' ~fault:plan () in
  check_bool "identical results under a fault plan" true (bare_f = observed_f);
  check_bool "faults actually fired" true (bare_f.Testbed.r_fault_counts <> [])

(* --- report rendering and schema ----------------------------------------------- *)

let test_report_schema () =
  let obs = Obs.create () in
  let r = testbed_run ~obs () in
  let mhz = float_of_int Platform.p0.Platform.p_cpu_mhz in
  let j = Obs.Report.json (Obs.Report.Sim mhz) obs in
  (match Obs.Report.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  (* the schema check catches a tampered total *)
  (match j with
  | Obs.Json.Obj kvs ->
      let broken =
        Obs.Json.Obj
          (List.map
             (function
               | "total_cost", _ -> ("total_cost", Obs.Json.Float 1.0)
               | kv -> kv)
             kvs)
      in
      check_bool "tampered total rejected" true
        (Result.is_error (Obs.Report.validate broken))
  | _ -> Alcotest.fail "report is not an object");
  (match Obs.Json.member "total_ns" j with
  | Some (Obs.Json.Int ns) ->
      check "json total equals the aggregate" (int_of_float r.Testbed.r_model_ns)
        ns
  | _ -> Alcotest.fail "total_ns missing");
  let table = Obs.Report.table (Obs.Report.Sim mhz) obs in
  check_bool "table has a total row" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "total")
       (String.split_on_char '\n' table))

(* --- the per-event ledger, kept as a reference -------------------------------- *)

(* A per-event ledger, the reference for [Obs]'s per-port cells: every
   report looks up both ends, learns their classes and bumps their
   totals and port arrays, and every event reads the clock when [~wall]
   is set. The cells must reproduce its counters, and its exact
   event-delta wall column is what the sampled one estimates. *)
module Ledger = struct
  type elem = {
    mutable el_class : string;
    mutable el_pushes : int;
    mutable el_pulls : int;
    mutable el_batches : int;
    mutable el_in : int;
    mutable el_out : int;
    mutable el_in_ports : int array;
    mutable el_out_ports : int array;
    el_drop_reasons : (string, int ref) Hashtbl.t;
    mutable el_drops : int;
    mutable el_spawns : int;
    mutable el_recycles : int;
    mutable el_wall_ns : int;
  }

  type t = {
    mutable elems : elem array;
    count_recycles : bool;
    mutable w_cur : int;
    mutable w_last : int;
  }

  let create ?(recycles = false) () =
    { elems = [||]; count_recycles = recycles; w_cur = -1; w_last = 0 }

  let fresh_elem () =
    {
      el_class = "";
      el_pushes = 0;
      el_pulls = 0;
      el_batches = 0;
      el_in = 0;
      el_out = 0;
      el_in_ports = [||];
      el_out_ports = [||];
      el_drop_reasons = Hashtbl.create 4;
      el_drops = 0;
      el_spawns = 0;
      el_recycles = 0;
      el_wall_ns = 0;
    }

  let elem t idx =
    let n = Array.length t.elems in
    if idx >= n then
      t.elems <-
        Array.init
          (max (idx + 1) (max 8 (2 * n)))
          (fun i -> if i < n then t.elems.(i) else fresh_elem ());
    t.elems.(idx)

  let bump_port e out port n =
    let arr = if out then e.el_out_ports else e.el_in_ports in
    let arr =
      if port < Array.length arr then arr
      else begin
        let grown = Array.make (port + 1) 0 in
        Array.blit arr 0 grown 0 (Array.length arr);
        if out then e.el_out_ports <- grown else e.el_in_ports <- grown;
        grown
      end
    in
    arr.(port) <- arr.(port) + n

  let note_transfer t (tr : Hooks.transfer) n ~batched =
    let producer, pport, consumer, cport =
      if tr.Hooks.tr_pull then
        (tr.Hooks.tr_dst_idx, tr.Hooks.tr_dst_port, tr.Hooks.tr_src_idx,
         tr.Hooks.tr_src_port)
      else
        (tr.Hooks.tr_src_idx, tr.Hooks.tr_src_port, tr.Hooks.tr_dst_idx,
         tr.Hooks.tr_dst_port)
    in
    let pe = elem t producer and ce = elem t consumer in
    if pe.el_class = "" then
      pe.el_class <-
        (if tr.Hooks.tr_pull then tr.Hooks.tr_dst_class
         else tr.Hooks.tr_src_class);
    if ce.el_class = "" then
      ce.el_class <-
        (if tr.Hooks.tr_pull then tr.Hooks.tr_src_class
         else tr.Hooks.tr_dst_class);
    pe.el_out <- pe.el_out + n;
    ce.el_in <- ce.el_in + n;
    bump_port pe true pport n;
    bump_port ce false cport n;
    if batched then
      if tr.Hooks.tr_pull then pe.el_batches <- pe.el_batches + 1
      else ce.el_batches <- ce.el_batches + 1
    else if tr.Hooks.tr_pull then pe.el_pulls <- pe.el_pulls + 1
    else ce.el_pushes <- ce.el_pushes + 1

  let note_drop t ~idx ~cls ~reason =
    let e = elem t idx in
    if e.el_class = "" then e.el_class <- cls;
    e.el_drops <- e.el_drops + 1;
    if t.count_recycles then e.el_recycles <- e.el_recycles + 1;
    match Hashtbl.find_opt e.el_drop_reasons reason with
    | Some r -> incr r
    | None -> Hashtbl.replace e.el_drop_reasons reason (ref 1)

  let wall_tick t now next =
    let nowv = now () in
    if t.w_cur >= 0 then begin
      let e = elem t t.w_cur in
      let d = nowv - t.w_last in
      if d > 0 then e.el_wall_ns <- e.el_wall_ns + d
    end;
    t.w_last <- nowv;
    t.w_cur <- next

  let hooks ?(now = fun () -> 0) ?(wall = false) t (base : Hooks.t) =
    {
      base with
      Hooks.on_transfer =
        (fun tr p ->
          base.Hooks.on_transfer tr p;
          note_transfer t tr 1 ~batched:false;
          if wall then wall_tick t now tr.Hooks.tr_dst_idx);
      on_transfer_batch =
        (fun tr batch n ->
          base.Hooks.on_transfer_batch tr batch n;
          note_transfer t tr n ~batched:true;
          if wall then wall_tick t now tr.Hooks.tr_dst_idx);
      on_drop =
        (fun ~idx ~cls ~reason p ->
          base.Hooks.on_drop ~idx ~cls ~reason p;
          note_drop t ~idx ~cls ~reason;
          if wall then wall_tick t now idx);
      on_spawn =
        (fun ~idx ~cls p ->
          base.Hooks.on_spawn ~idx ~cls p;
          let e = elem t idx in
          if e.el_class = "" then e.el_class <- cls;
          e.el_spawns <- e.el_spawns + 1);
    }

  let merge_into ~src ~dst =
    Array.iteri
      (fun idx se ->
        let de = elem dst idx in
        if de.el_class = "" then de.el_class <- se.el_class;
        de.el_pushes <- de.el_pushes + se.el_pushes;
        de.el_pulls <- de.el_pulls + se.el_pulls;
        de.el_batches <- de.el_batches + se.el_batches;
        de.el_in <- de.el_in + se.el_in;
        de.el_out <- de.el_out + se.el_out;
        Array.iteri (fun p n -> if n > 0 then bump_port de false p n)
          se.el_in_ports;
        Array.iteri (fun p n -> if n > 0 then bump_port de true p n)
          se.el_out_ports;
        Hashtbl.iter
          (fun reason r ->
            match Hashtbl.find_opt de.el_drop_reasons reason with
            | Some tot -> tot := !tot + !r
            | None -> Hashtbl.replace de.el_drop_reasons reason (ref !r))
          se.el_drop_reasons;
        de.el_drops <- de.el_drops + se.el_drops;
        de.el_spawns <- de.el_spawns + se.el_spawns;
        de.el_recycles <- de.el_recycles + se.el_recycles;
        de.el_wall_ns <- de.el_wall_ns + se.el_wall_ns)
      src.elems

  let ports_list arr =
    List.filter (fun (_, n) -> n > 0)
      (List.mapi (fun i n -> (i, n)) (Array.to_list arr))

  (* In [Obs.stats] form, without the cost columns. *)
  let snapshot t =
    List.concat
      (List.mapi
         (fun idx e ->
           if e.el_class <> "" || e.el_in > 0 || e.el_out > 0 || e.el_drops > 0
              || e.el_spawns > 0
           then
             [
               {
                 Obs.s_idx = idx;
                 s_name = Printf.sprintf "e%d" idx;
                 s_class = e.el_class;
                 s_pushes = e.el_pushes;
                 s_pulls = e.el_pulls;
                 s_batches = e.el_batches;
                 s_in = e.el_in;
                 s_out = e.el_out;
                 s_in_ports = ports_list e.el_in_ports;
                 s_out_ports = ports_list e.el_out_ports;
                 s_drop_reasons =
                   List.sort compare
                     (Hashtbl.fold (fun k r l -> (k, !r) :: l) e.el_drop_reasons []);
                 s_drops = e.el_drops;
                 s_spawns = e.el_spawns;
                 s_recycles = e.el_recycles;
                 s_sim_ns = 0;
                 s_wall_ns = 0;
               };
             ]
           else [])
         (Array.to_list t.elems))

  let total_wall_ns t = Array.fold_left (fun a e -> a + e.el_wall_ns) 0 t.elems
end

(* Every field but the wall-clock estimate. *)
let counters obs =
  List.map (fun s -> { s with Obs.s_wall_ns = 0 }) (Obs.snapshot obs)

let show_stats (s : Obs.stats) =
  let pairs fmt l =
    String.concat "," (List.map (fun (k, n) -> Printf.sprintf fmt k n) l)
  in
  Printf.sprintf
    "%d %s %s push=%d pull=%d batch=%d in=%d out=%d in_ports=[%s] \
     out_ports=[%s] drops=%d [%s] spawns=%d recycles=%d sim=%d"
    s.Obs.s_idx s.Obs.s_name s.Obs.s_class s.Obs.s_pushes s.Obs.s_pulls
    s.Obs.s_batches s.Obs.s_in s.Obs.s_out
    (pairs "%d:%d" s.Obs.s_in_ports)
    (pairs "%d:%d" s.Obs.s_out_ports)
    s.Obs.s_drops
    (pairs "%s=%d" s.Obs.s_drop_reasons)
    s.Obs.s_spawns s.Obs.s_recycles s.Obs.s_sim_ns

let check_same_ledger tag ledger obs =
  Alcotest.(check (list string))
    (tag ^ ": counters equal the per-event ledger")
    (List.map show_stats (Ledger.snapshot ledger))
    (List.map show_stats (counters obs))

(* --- seeded traffic ----------------------------------------------------------- *)

let host_mac i = Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:aa:00:%02x" i)
let router_mac i = Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:00:%02x:01" i)

(* Answer the router's neighbour 10.0.i.2 on every interface, so frames
   to it are forwarded rather than held for ARP. *)
let arp_primes nports =
  List.init nports (fun i ->
      ( i,
        Headers.Build.arp_reply ~src_eth:(host_mac i)
          ~src_ip:(Ipaddr.of_octets 10 0 i 2) ~dst_eth:(router_mac i)
          ~dst_ip:(Ipaddr.of_octets 10 0 i 1) ))

(* Mostly forwardable UDP between the interfaces' neighbours, plus
   frames that expire (an ICMP error is spawned), go to an unresolved
   neighbour (an ARP query is spawned), have no route, or fail the
   header checksum. *)
let router_frames ~seed ~nports n =
  let rng = Random.State.make [| seed; 0x0b5 |] in
  List.init n (fun _ ->
      let src_if = Random.State.int rng nports in
      let dst_if = Random.State.int rng nports in
      let kind = Random.State.int rng 100 in
      let dst_ip =
        if kind < 86 then Ipaddr.of_octets 10 0 dst_if 2
        else if kind < 91 then Ipaddr.of_octets 10 0 dst_if 77
        else if kind < 95 then Ipaddr.of_octets 192 168 1 1
        else Ipaddr.of_octets 10 0 dst_if 2
      in
      let ttl = if kind >= 95 && kind < 98 then 1 else 64 in
      let p =
        Headers.Build.udp ~src_eth:(host_mac src_if) ~dst_eth:(router_mac src_if)
          ~src_ip:(Ipaddr.of_octets 10 0 src_if 2) ~dst_ip ~ttl ()
      in
      if kind >= 98 then Packet.set_u8 p 24 (Packet.get_u8 p 24 lxor 0xff);
      (src_if, p))

let cascade_stages = 4

let cascade_config =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "pd :: PollDevice(eth0);\noutq :: Queue(1000);\ntd :: ToDevice(eth1);\n";
  for i = 0 to cascade_stages - 1 do
    add "k%d :: Classifier(12/0800 %d/%02x, -);\n" i (42 + i) (0xa0 + i)
  done;
  add "pd -> k0;\n";
  for i = 0 to cascade_stages - 2 do
    add "k%d [0] -> k%d;\nk%d [1] -> Discard;\n" i (i + 1) i
  done;
  add "k%d [0] -> outq -> td;\nk%d [1] -> Discard;\n" (cascade_stages - 1)
    (cascade_stages - 1);
  Buffer.contents b

(* A quarter of the frames fall through at a seeded stage. *)
let cascade_frames ~seed n =
  let rng = Random.State.make [| seed; 0xca5 |] in
  List.init n (fun _ ->
      let p =
        Headers.Build.udp ~src_ip:(Ipaddr.of_octets 10 0 0 2)
          ~dst_ip:(Ipaddr.of_octets 10 0 0 3) ()
      in
      let fail =
        if Random.State.int rng 4 = 0 then Random.State.int rng cascade_stages
        else cascade_stages
      in
      for i = 0 to cascade_stages - 1 do
        Packet.set_u8 p (42 + i) (if i = fail then 0 else 0xa0 + i)
      done;
      (0, p))

type workload = {
  wl_name : string;
  wl_graph : Oclick_graph.Router.t;
  wl_ndevs : int;
  wl_primes : (int * Packet.t) list;
  wl_frames : seed:int -> (int * Packet.t) list;
}

let router_workload nports =
  {
    wl_name = Printf.sprintf "ip-router-%d" nports;
    wl_graph = router_graph nports;
    wl_ndevs = nports;
    wl_primes = arp_primes nports;
    wl_frames = (fun ~seed -> router_frames ~seed ~nports 240);
  }

let cascade_workload =
  {
    wl_name = "cascade";
    wl_graph =
      (match Oclick_graph.Router.parse_string cascade_config with
      | Ok g -> g
      | Error e -> failwith e);
    wl_ndevs = 2;
    wl_primes = [];
    wl_frames = (fun ~seed -> cascade_frames ~seed 240);
  }

let make_devices n =
  Array.init n (fun i -> new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())

let drain_devices devs =
  Array.iter
    (fun dev ->
      let rec go () = match dev#collect with Some _ -> go () | None -> () in
      go ())
    devs

(* Inject [frames] in groups of 16, letting the router run between
   groups, then run it idle. *)
let feed ~run_once ~run_idle devs frames =
  List.iteri
    (fun k (dev, p) ->
      devs.(dev)#inject (Packet.clone p);
      if k mod 16 = 15 then run_once ())
    frames;
  check_bool "router goes idle" true (run_idle ());
  drain_devices devs

(* The observer under test and the reference ledger watch one run, one
   wrapped around the other; [outer_obs] puts the observer outside, so
   its base is the ledger's hooks rather than the null ones. *)
let layered ~outer_obs ~now obs ledger =
  if outer_obs then Obs.hooks ~now ~wall:true obs (Ledger.hooks ledger Hooks.null)
  else Ledger.hooks ledger (Obs.hooks ~now ~wall:true obs Hooks.null)

let mode_name ~compile ~fuse =
  if fuse then "fused" else if compile then "compiled" else "interp"

let driver_differential wl ~compile ~fuse ~batch ~seed =
  let tag =
    Printf.sprintf "%s %s batch %d seed %d" wl.wl_name (mode_name ~compile ~fuse)
      batch seed
  in
  let pooled = batch > 1 in
  let obs = Obs.create ~recycles:pooled () in
  let ledger = Ledger.create ~recycles:pooled () in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let hooks = layered ~outer_obs:(seed mod 2 = 0) ~now obs ledger in
  let devs = make_devices wl.wl_ndevs in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let pool = if pooled then Some (Packet.Pool.create ~capacity:256 ()) else None in
  let d =
    match
      Driver.instantiate ~hooks ~devices ~batch ?pool ~compile ~fuse
        wl.wl_graph
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s: %s" tag e
  in
  let run_once () = ignore (Driver.run_tasks_once d) in
  let run_idle () = Driver.run_until_idle d in
  feed ~run_once ~run_idle devs wl.wl_primes;
  feed ~run_once ~run_idle devs (wl.wl_frames ~seed);
  check_same_ledger tag ledger obs;
  let seen f = List.exists f (Ledger.snapshot ledger) in
  check_bool (tag ^ ": packets moved and were dropped") true
    (seen (fun s -> s.Obs.s_in > 0) && seen (fun s -> s.Obs.s_drops > 0));
  if batch > 1 then
    check_bool (tag ^ ": batched transfers ran") true
      (seen (fun s -> s.Obs.s_batches > 0))

let test_ledger_differential () =
  List.iter
    (fun wl ->
      List.iter
        (fun (compile, fuse) ->
          List.iter
            (fun batch ->
              List.iter
                (fun seed -> driver_differential wl ~compile ~fuse ~batch ~seed)
                [ 1; 2; 3 ])
            [ 1; 8; 32 ])
        [ (false, false); (true, false); (true, true) ])
    [ router_workload 2; router_workload 8; cascade_workload ]

(* Per-domain observers merged after a 2-domain run agree with the
   per-domain reference ledgers merged the old way. *)
let test_ledger_differential_runner () =
  List.iter
    (fun (wl, batch, compile) ->
      let tag = Printf.sprintf "%s 2 domains batch %d" wl.wl_name batch in
      let domains = 2 in
      let obs = Array.init domains (fun _ -> Obs.create ~recycles:true ()) in
      let ledgers = Array.init domains (fun _ -> Ledger.create ~recycles:true ()) in
      let hooks_for shard =
        Obs.hooks obs.(shard) (Ledger.hooks ledgers.(shard) Hooks.null)
      in
      let devs = make_devices wl.wl_ndevs in
      let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
      match
        Oclick_parallel.Runner.create ~hooks_for ~devices ~batch ~pool:true
          ~compile ~ring_capacity:4096 ~domains wl.wl_graph
      with
      | Error e -> Alcotest.failf "%s: %s" tag e
      | Ok r ->
          let run_once () = () in
          let run_idle () = Oclick_parallel.Runner.run_until_idle r in
          feed ~run_once ~run_idle devs wl.wl_primes;
          feed ~run_once ~run_idle devs (wl.wl_frames ~seed:1);
          let merged = Obs.create ~recycles:true () in
          let merged_ledger = Ledger.create ~recycles:true () in
          Array.iter (fun o -> Obs.merge_into ~src:o ~dst:merged) obs;
          Array.iter (fun l -> Ledger.merge_into ~src:l ~dst:merged_ledger) ledgers;
          check_same_ledger tag merged_ledger merged;
          check_bool (tag ^ ": every domain observed traffic") true
            (Array.for_all
               (fun o -> List.exists (fun s -> s.Obs.s_in > 0) (Obs.snapshot o))
               obs))
    [ (router_workload 2, 8, true); (cascade_workload, 1, false) ]

(* --- sampled wall clock -------------------------------------------------------- *)

(* A simulated clock that the innermost hooks advance by a varying
   amount per event, so the sampled column and the reference ledger's
   exact event-delta column read the same times. *)
let test_sampled_wall () =
  let clock = ref 0 and events = ref 0 in
  let advance idx =
    incr events;
    clock := !clock + 40 + (((idx * 37) + (!events * 11)) mod 300)
  in
  let base =
    {
      Hooks.null with
      Hooks.on_transfer = (fun tr _ -> advance tr.Hooks.tr_dst_idx);
      on_transfer_batch = (fun tr _ _ -> advance tr.Hooks.tr_dst_idx);
      on_drop = (fun ~idx ~cls:_ ~reason:_ _ -> advance idx);
    }
  in
  let now () = !clock in
  let obs = Obs.create () and ledger = Ledger.create () in
  let hooks = Obs.hooks ~now ~wall:true obs (Ledger.hooks ~now ~wall:true ledger base) in
  let wl = router_workload 2 in
  let devs = make_devices wl.wl_ndevs in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let d =
    match Driver.instantiate ~hooks ~devices wl.wl_graph with
    | Ok d -> d
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  for i = 0 to Driver.size d - 1 do
    Obs.set_meta obs ~idx:i ~name:(Driver.element_at d i)#name
      ~cls:(Driver.element_at d i)#class_name
  done;
  let run_once () = ignore (Driver.run_tasks_once d) in
  let run_idle () = Driver.run_until_idle d in
  feed ~run_once ~run_idle devs wl.wl_primes;
  feed ~run_once ~run_idle devs (router_frames ~seed:7 ~nports:2 7000);
  check_bool "at least 10^5 events" true (!events >= 100_000);
  let exact = Ledger.total_wall_ns ledger and sampled = Obs.total_wall_ns obs in
  if abs (sampled - exact) * 10 > exact then
    Alcotest.failf "sampled wall total %d is not within 10%% of the exact %d"
      sampled exact;
  let idle =
    List.filter
      (fun s -> s.Obs.s_in = 0 && s.Obs.s_out = 0 && s.Obs.s_drops = 0)
      (Obs.snapshot obs)
  in
  check_bool "some elements see no event" true (idle <> []);
  List.iter
    (fun s -> check (s.Obs.s_name ^ " sees no event and reads 0") 0 s.Obs.s_wall_ns)
    idle;
  match Obs.Report.validate (Obs.Report.json Obs.Report.Wall obs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e

(* --- the observer allocates nothing per packet --------------------------------- *)

(* Perfbench counts minor words only in unobserved runs, so an observer
   that allocated per packet would never show there. *)
let minor_words_per_packet ~observe =
  let wl = router_workload 2 in
  let devs = make_devices wl.wl_ndevs in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let clock = ref 0 in
  let now () = incr clock; !clock in
  let hooks =
    if observe then Obs.hooks ~now ~wall:true (Obs.create ~recycles:true ()) Hooks.null
    else Hooks.null
  in
  let pool = Packet.Pool.create ~capacity:1024 () in
  let d =
    match
      Driver.instantiate ~hooks ~devices ~batch:32 ~pool ~compile:true ~fuse:true
        wl.wl_graph
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "instantiate: %s" e
  in
  let run_once () = ignore (Driver.run_tasks_once d) in
  let run_idle () = Driver.run_until_idle d in
  feed ~run_once ~run_idle devs wl.wl_primes;
  feed ~run_once ~run_idle devs (router_frames ~seed:4 ~nports:2 512);
  let frames = router_frames ~seed:5 ~nports:2 4096 in
  let w0 = Gc.minor_words () in
  feed ~run_once ~run_idle devs frames;
  (Gc.minor_words () -. w0) /. float_of_int (List.length frames)

let test_observer_allocation () =
  let bare = minor_words_per_packet ~observe:false in
  let observed = minor_words_per_packet ~observe:true in
  if observed > bare +. 0.05 then
    Alcotest.failf
      "observed run allocates %.3f minor words per packet, unobserved %.3f"
      observed bare

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [ Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_round_trip ]);
      ( "counters",
        [
          Alcotest.test_case "driver counters" `Quick test_driver_counters;
          Alcotest.test_case "per-element conservation at batch 1/8/32" `Quick
            test_element_conservation;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "obs totals equal the ledger" `Quick
            test_obs_matches_ledger;
          Alcotest.test_case "attribution on a sparse optimized graph" `Quick
            test_sparse_graph_attribution;
          Alcotest.test_case "reset between runs" `Quick test_reset_between_runs;
          Alcotest.test_case "observation changes nothing" `Quick
            test_observation_changes_nothing;
        ] );
      ( "report",
        [ Alcotest.test_case "schema" `Quick test_report_schema ] );
      ( "cells",
        [
          Alcotest.test_case "counters equal the per-event ledger" `Quick
            test_ledger_differential;
          Alcotest.test_case "2-domain merge equals the per-event ledger"
            `Quick test_ledger_differential_runner;
          Alcotest.test_case "sampled wall clock" `Quick test_sampled_wall;
          Alcotest.test_case "observer allocation" `Quick
            test_observer_allocation;
        ] );
    ]
