(* Tests for the driver and scheduler, and end-to-end IP router behaviour
   in the pure runtime. *)

module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr
module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Hooks = Oclick_runtime.Hooks
module Registry = Oclick_runtime.Registry

let () = Oclick_elements.register_all ()
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- instantiation ------------------------------------------------------- *)

let test_instantiate_reports_all_errors () =
  match
    Driver.of_string "a :: Zorp; b :: Queue(nonsense); a -> b; b -> Discard;"
  with
  | Ok _ -> Alcotest.fail "must fail"
  | Error e ->
      (* both the unknown class and (after it is fixed) config errors are
         reported with element names *)
      check_bool "mentions Zorp" true
        (let has sub s =
           let rec find i =
             i + String.length sub <= String.length s
             && (String.sub s i (String.length sub) = sub || find (i + 1))
           in
           find 0
         in
         has "Zorp" e)

let test_instantiate_rejects_conflict () =
  (* Two queues in a row: q1's pull output feeds q2's push input. *)
  match
    Driver.of_string
      "Idle -> q1 :: Queue(5) -> q2 :: Queue(5); q2 -> pullsink :: Discard;"
  with
  | Ok _ -> Alcotest.fail "pull->push conflict must fail"
  | Error _ -> ()

let test_element_lookup () =
  let d =
    match Driver.of_string "Idle -> c :: Counter -> Discard;" with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  check_bool "found" true (Driver.element d "c" <> None);
  check_bool "missing" true (Driver.element d "zzz" = None);
  check "size" 3 (Driver.size d)

(* --- hooks ------------------------------------------------------------------ *)

let test_hooks_see_transfers_and_work () =
  let transfers = ref [] and works = ref [] and drops = ref 0 in
  let hooks =
    {
      Hooks.on_transfer = (fun tr _p -> transfers := tr :: !transfers);
      on_transfer_batch =
        (fun tr _batch n ->
          for _ = 1 to n do
            transfers := tr :: !transfers
          done);
      on_work = (fun ~idx:_ ~cls w -> works := (cls, w) :: !works);
      on_drop = (fun ~idx:_ ~cls:_ ~reason:_ _ -> incr drops);
      on_spawn = (fun ~idx:_ ~cls:_ _ -> ());
      on_fault = (fun ~idx:_ ~cls:_ ~reason:_ -> ());
      on_warn = (fun ~src:_ _ -> ());
    }
  in
  let graph =
    match
      Oclick_graph.Router.parse_string
        "src :: Idle; src -> ck :: CheckIPHeader() -> q :: Queue(1); q -> \
         Discard;"
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "%s" e
  in
  let d =
    match Driver.instantiate ~hooks graph with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let p = Headers.Build.udp ~src_ip:1 ~dst_ip:2 () in
  Packet.pull p 14;
  (Option.get (Driver.element d "ck"))#push 0 p;
  (* ck -> q transfer observed *)
  check_bool "transfer observed" true
    (List.exists
       (fun (tr : Hooks.transfer) -> tr.tr_dst_class = "Queue")
       !transfers);
  check_bool "checksum work observed" true
    (List.exists
       (fun (cls, w) ->
         cls = "CheckIPHeader"
         && match w with Hooks.W_checksum _ -> true | _ -> false)
       !works);
  (* overflow the 1-slot queue: a drop is reported *)
  let p2 = Headers.Build.udp ~src_ip:1 ~dst_ip:2 () in
  Packet.pull p2 14;
  (Option.get (Driver.element d "ck"))#push 0 p2;
  check "queue drop reported" 1 !drops

let test_pull_hook_only_on_packets () =
  let pulls = ref 0 in
  let hooks =
    {
      Hooks.null with
      Hooks.on_transfer =
        (fun tr _p -> if tr.Hooks.tr_pull then incr pulls);
    }
  in
  let graph =
    match
      Oclick_graph.Router.parse_string
        "Idle -> q :: Queue(5); q -> d :: Discard;"
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "%s" e
  in
  let d =
    match Driver.instantiate ~hooks graph with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  (* discard (pull mode) polls an empty queue: no pull transfers *)
  ignore (Driver.run_tasks_once d);
  check "idle pulls unreported" 0 !pulls;
  (Option.get (Driver.element d "q"))#push 0 (Packet.create 10);
  ignore (Driver.run_tasks_once d);
  check "real pull reported" 1 !pulls

(* --- scheduling ---------------------------------------------------------------- *)

let test_run_until_idle_terminates () =
  let d =
    match
      Driver.of_string
        "InfiniteSource(LIMIT 25, BURST 4) -> q :: Queue(100); q -> c :: \
         Counter; c -> Discard;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  check_bool "converged" true (Driver.run_until_idle d);
  check "all packets drained" 25
    (List.assoc "packets" (Option.get (Driver.element d "c"))#stats)

let test_scheduler_round_robin () =
  let d =
    match
      Driver.of_string
        "s1 :: InfiniteSource(LIMIT 3) -> c1 :: Counter -> Discard; s2 :: \
         InfiniteSource(LIMIT 3) -> c2 :: Counter -> Discard;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  ignore (Driver.run_tasks_once d);
  (* one round: each source pushed one burst *)
  let stat name =
    List.assoc "packets" (Option.get (Driver.element d name))#stats
  in
  check "s1 ran" 1 (stat "c1");
  check "s2 ran" 1 (stat "c2");
  check_bool "converged" true (Driver.run_until_idle d);
  check "s1 done" 3 (stat "c1");
  check "s2 done" 3 (stat "c2")

(* --- the Figure 1 router, end to end -------------------------------------------- *)

type rig = {
  rig_driver : Driver.t;
  rig_devs : Netdevice.queue_device array;
}

let make_rig ?(n = 2) ?hooks ?batch ?pool graph =
  let devs =
    Array.init n (fun i -> new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  match Driver.instantiate ?hooks ~devices ?batch ?pool graph with
  | Ok d -> { rig_driver = d; rig_devs = devs }
  | Error e -> Alcotest.failf "instantiate: %s" e

let ip_router_graph ?(n = 2) () =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces n))

let host_udp ?(ttl = 64) ~src_if ~dst_ip () =
  Headers.Build.udp
    ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
    ~dst_eth:(Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:00:%02x:01" src_if))
    ~src_ip:(Ipaddr.of_octets 10 0 src_if 2)
    ~dst_ip:(Ipaddr.of_string_exn dst_ip)
    ~ttl ()

(* Answer the ARP query the router emits on [dev] with [host_eth]. *)
let answer_arp rig dev_idx host_eth =
  let dev = rig.rig_devs.(dev_idx) in
  match dev#collect with
  | Some q when Headers.Ether.ethertype q = 0x806 ->
      let reply =
        Headers.Build.arp_reply ~src_eth:host_eth
          ~src_ip:(Headers.Arp.target_ip ~off:14 q)
          ~dst_eth:(Headers.Arp.sender_eth ~off:14 q)
          ~dst_ip:(Headers.Arp.sender_ip ~off:14 q)
      in
      dev#inject reply
  | Some _ -> Alcotest.fail "expected an ARP query"
  | None -> Alcotest.fail "no ARP query emitted"

let forward_one rig =
  let host1 = Ethaddr.of_string_exn "00:00:c0:bb:01:02" in
  rig.rig_devs.(0)#inject (host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ());
  Driver.run rig.rig_driver ~rounds:20;
  answer_arp rig 1 host1;
  Driver.run rig.rig_driver ~rounds:20;
  rig.rig_devs.(1)#collect

let test_router_forwards () =
  let rig = make_rig (ip_router_graph ()) in
  match forward_one rig with
  | Some f ->
      check "ip ethertype" 0x800 (Headers.Ether.ethertype f);
      check "ttl decremented" 63 (Headers.Ip.ttl ~off:14 f);
      check_bool "checksum valid" true (Headers.Ip.checksum_valid ~off:14 f);
      Alcotest.(check string)
        "destination mac" "00:00:c0:bb:01:02"
        (Ethaddr.to_string (Headers.Ether.dst f))
  | None -> Alcotest.fail "packet not forwarded"

let test_router_answers_arp () =
  let rig = make_rig (ip_router_graph ()) in
  let query =
    Headers.Build.arp_query
      ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
      ~src_ip:(Ipaddr.of_string_exn "10.0.0.2")
      ~target_ip:(Ipaddr.of_string_exn "10.0.0.1")
  in
  rig.rig_devs.(0)#inject query;
  Driver.run rig.rig_driver ~rounds:20;
  match rig.rig_devs.(0)#collect with
  | Some r ->
      check "arp reply" 0x806 (Headers.Ether.ethertype r);
      check "op" 2 (Headers.Arp.op ~off:14 r)
  | None -> Alcotest.fail "no ARP reply"

let test_router_ttl_expiry_generates_icmp () =
  let rig = make_rig (ip_router_graph ()) in
  (* Resolve ARP back toward the source first (the ICMP error goes back
     out interface 0). *)
  rig.rig_devs.(0)#inject (host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ~ttl:1 ());
  Driver.run rig.rig_driver ~rounds:20;
  answer_arp rig 0 (Ethaddr.of_string_exn "00:00:c0:aa:00:02");
  Driver.run rig.rig_driver ~rounds:20;
  match rig.rig_devs.(0)#collect with
  | Some e ->
      check "ip frame" 0x800 (Headers.Ether.ethertype e);
      check "icmp" 1 (Headers.Ip.protocol ~off:14 e);
      check "time exceeded" 11 (Headers.Icmp.icmp_type ~off:34 e);
      (* FixIPSrc stamped the outgoing interface's address *)
      check "source is router" (Ipaddr.of_string_exn "10.0.0.1")
        (Headers.Ip.src ~off:14 e)
  | None -> Alcotest.fail "no ICMP error emitted"

let test_router_drops_link_broadcast_ip () =
  let rig = make_rig (ip_router_graph ()) in
  let p = host_udp ~src_if:0 ~dst_ip:"10.0.1.2" () in
  Headers.Ether.set_dst p Ethaddr.broadcast;
  rig.rig_devs.(0)#inject p;
  Driver.run rig.rig_driver ~rounds:30;
  check_bool "nothing forwarded" true (rig.rig_devs.(1)#collect = None)

let test_router_fragments_large_packet () =
  let rig = make_rig (ip_router_graph ()) in
  (* ARP-resolve first with a small packet. *)
  (match forward_one rig with
  | Some _ -> ()
  | None -> Alcotest.fail "setup forward failed");
  let big =
    Headers.Build.udp
      ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
      ~dst_eth:(Ethaddr.of_string_exn "00:00:c0:00:00:01")
      ~src_ip:(Ipaddr.of_octets 10 0 0 2)
      ~dst_ip:(Ipaddr.of_string_exn "10.0.1.2")
      ~payload_len:2000 ()
  in
  rig.rig_devs.(0)#inject big;
  Driver.run rig.rig_driver ~rounds:40;
  let rec collect acc =
    match rig.rig_devs.(1)#collect with
    | Some f -> collect (f :: acc)
    | None -> acc
  in
  let frags = collect [] in
  check "two fragments" 2 (List.length frags);
  check_bool "one has MF" true
    (List.exists (fun f -> Headers.Ip.more_fragments ~off:14 f) frags)

let test_router_multi_interface () =
  let rig = make_rig ~n:4 (ip_router_graph ~n:4 ()) in
  (* iface 2 -> iface 3 *)
  rig.rig_devs.(2)#inject
    (Headers.Build.udp
       ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:02:02")
       ~dst_eth:(Ethaddr.of_string_exn "00:00:c0:00:02:01")
       ~src_ip:(Ipaddr.of_octets 10 0 2 2)
       ~dst_ip:(Ipaddr.of_octets 10 0 3 2)
       ());
  Driver.run rig.rig_driver ~rounds:20;
  answer_arp rig 3 (Ethaddr.of_string_exn "00:00:c0:bb:03:02");
  Driver.run rig.rig_driver ~rounds:20;
  check_bool "forwarded out iface 3" true (rig.rig_devs.(3)#collect <> None);
  check_bool "nothing on iface 1" true (rig.rig_devs.(1)#collect = None)

(* --- batched vs scalar differential -------------------------------------------- *)

(* The batched transfer path must be semantics-preserving: the same
   traffic through the same router yields identical forwarded counts and
   identical per-reason drop totals whatever the batch size (and whether
   or not a recycling pool is installed). The traffic mix is a seeded
   deterministic fuzz over the interesting paths: valid forwards, bad IP
   checksums, TTL expiry (spawns ICMP back out the ingress), unroutable
   destinations, and link-layer broadcasts. *)

let mixed_traffic seed k =
  let state = ref (seed land 0x3fffffff) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  List.init k (fun _ ->
      match next () mod 8 with
      | 0 ->
          (* corrupt the IP header checksum: CheckIPHeader drops it *)
          let p = host_udp ~src_if:0 ~dst_ip:"10.0.1.2" () in
          Packet.set_u8 p 24 (Packet.get_u8 p 24 lxor 0xff);
          p
      | 1 -> host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ~ttl:1 ()
      | 2 -> host_udp ~src_if:0 ~dst_ip:"192.168.9.9" ()
      | 3 ->
          let p = host_udp ~src_if:0 ~dst_ip:"10.0.1.2" () in
          Headers.Ether.set_dst p Ethaddr.broadcast;
          p
      | _ -> host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ())

(* Run [k] fuzzed packets through the two-interface router and return
   (forwarded out eth1, returned to eth0, sorted per-reason drops). *)
let run_differential_variant ~batch ~pool ~seed ~k =
  let drops : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let hooks =
    {
      Hooks.null with
      Hooks.on_drop =
        (fun ~idx:_ ~cls:_ ~reason _ ->
          match Hashtbl.find_opt drops reason with
          | Some r -> incr r
          | None -> Hashtbl.replace drops reason (ref 1));
    }
  in
  let pool = if pool then Some (Packet.Pool.create ()) else None in
  let rig = make_rig ~hooks ~batch ?pool (ip_router_graph ()) in
  (* Resolve ARP in both directions before the measured traffic: forward
     flow out eth1, ICMP errors back out eth0. *)
  rig.rig_devs.(0)#inject (host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ());
  ignore (Driver.run_until_idle rig.rig_driver);
  answer_arp rig 1 (Ethaddr.of_string_exn "00:00:c0:bb:01:02");
  ignore (Driver.run_until_idle rig.rig_driver);
  rig.rig_devs.(0)#inject (host_udp ~src_if:0 ~dst_ip:"10.0.1.2" ~ttl:1 ());
  ignore (Driver.run_until_idle rig.rig_driver);
  answer_arp rig 0 (Ethaddr.of_string_exn "00:00:c0:aa:00:02");
  ignore (Driver.run_until_idle rig.rig_driver);
  let rec drain dev n =
    match dev#collect with Some _ -> drain dev (n + 1) | None -> n
  in
  ignore (drain rig.rig_devs.(0) 0);
  ignore (drain rig.rig_devs.(1) 0);
  Hashtbl.reset drops;
  List.iter rig.rig_devs.(0)#inject (mixed_traffic seed k);
  ignore (Driver.run_until_idle rig.rig_driver);
  let forwarded = drain rig.rig_devs.(1) 0
  and returned = drain rig.rig_devs.(0) 0 in
  let drop_list =
    Hashtbl.fold (fun r n acc -> (r, !n) :: acc) drops [] |> List.sort compare
  in
  (forwarded, returned, drop_list)

let test_batch_differential () =
  let k = 200 in
  List.iter
    (fun seed ->
      let scalar = run_differential_variant ~batch:1 ~pool:false ~seed ~k in
      let _, _, scalar_drops = scalar in
      check_bool "fuzz exercised drop paths" true
        (List.mem_assoc "no route" scalar_drops
        && List.length scalar_drops >= 3);
      List.iter
        (fun (batch, pool) ->
          let name fmt =
            Printf.sprintf fmt seed batch (if pool then "+pool" else "")
          in
          let forwarded, returned, drops =
            run_differential_variant ~batch ~pool ~seed ~k
          in
          let s_fwd, s_ret, s_drops = scalar in
          check (name "seed %d batch %d%s: forwarded") s_fwd forwarded;
          check (name "seed %d batch %d%s: returned") s_ret returned;
          Alcotest.(check (list (pair string int)))
            (name "seed %d batch %d%s: drop reasons")
            s_drops drops)
        [ (4, false); (8, true); (32, true) ])
    [ 7; 42; 1234 ]

(* The same invariant end to end through the simulated testbed, under a
   seeded fault-injection plan: whole-run outcome totals, per-reason drop
   totals, and the packet-conservation ledger must not depend on the
   batch size. Rates stay well below saturation so no outcome depends on
   queue timing. *)
let test_testbed_batch_differential () =
  let module Testbed = Oclick_hw.Testbed in
  let module Platform = Oclick_hw.Platform in
  let graph = ip_router_graph ~n:8 () in
  List.iter
    (fun seed ->
      let fault =
        match
          Oclick_fault.Plan.parse
            (Printf.sprintf
               "seed=%d,corrupt=0.02,ttl0=0.02,badcksum=0.03,badlen=0.01,\
                truncate=0.01"
               seed)
        with
        | Ok p -> p
        | Error e -> Alcotest.failf "plan: %s" e
      in
      let run batch =
        match
          Testbed.run ~duration_ms:20 ~warmup_ms:10 ~batch
            ~platform:Platform.p0 ~graph ~fault ~input_pps:20_000 ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "testbed (batch %d): %s" batch e
      in
      let scalar = run 1 and batched = run 32 in
      let name s = Printf.sprintf "seed %d: %s" seed s in
      check_bool
        (name "outcome totals identical")
        true
        (scalar.Testbed.r_outcomes_total = batched.Testbed.r_outcomes_total);
      Alcotest.(check (list (pair string int)))
        (name "drop reasons identical")
        scalar.Testbed.r_drop_reasons_total batched.Testbed.r_drop_reasons_total;
      check_bool
        (name "conservation ledgers identical")
        true
        (scalar.Testbed.r_conservation = batched.Testbed.r_conservation);
      check_bool (name "faults were injected") true
        (scalar.Testbed.r_fault_counts <> []);
      check_bool (name "traffic flowed") true
        (scalar.Testbed.r_outcomes_total.Testbed.oc_sent > 0))
    [ 3; 42; 77 ]

(* --- push and push_batch derived from the sem ---------------------------- *)

(* Every element with a sem runs the same semantics scalar and batched,
   down to the summed work units: the testbed truncates each charge to
   whole nanoseconds, so a vector form that split its summed charge
   would move the simulated numbers without changing any outcome. *)

let sem_tree =
  lazy
    (match Oclick_classifier.Pattern.tree_of_config "12/0800, 12/0806" with
    | Ok t ->
        Oclick_elements.register_fast_classifier
          ~class_name:"FastClassifier@@sem" t
    | Error e -> Alcotest.failf "fast classifier tree: %s" e)

(* Seeded frames covering the drop and divert paths of the classes below:
   ARP and unknown ethertypes, corrupt checksums, DF, TTL 1, truncation,
   big payloads, every paint from -1 to 3, broadcast link types, and
   destinations that hit, miss, route through a gateway or to an
   unconnected port. [ip_front] pulls the Ethernet header. *)
let sem_frames ~ip_front ~seed n =
  let rs = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let module Ip = Headers.Ip in
  List.init n (fun _ ->
      let dst = pick [| 0x0a000001; 0x0a010203; 0xc0a80101; 0xac100001 |] in
      let p =
        Headers.Build.udp
          ~src_ip:(pick [| 0x01020304; 0x0a000002 |])
          ~dst_ip:dst
          ~payload_len:(pick [| 14; 100; 700; 1400 |])
          ~ttl:(pick [| 1; 2; 64 |])
          ()
      in
      (match Random.State.int rs 10 with
      | 0 -> Headers.Ether.set_ethertype p Headers.Ether.ethertype_arp
      | 1 -> Headers.Ether.set_ethertype p 0x86dd
      | 2 -> Packet.set_u8 p 24 (Packet.get_u8 p 24 lxor 0xff)
      | 3 ->
          Ip.set_flags_fragment ~off:14 p ~df:true ~mf:false ~frag:0;
          Ip.update_checksum ~off:14 p
      | 4 -> Packet.take p (Packet.length p - Random.State.int rs 40)
      | _ -> ());
      if ip_front && Packet.length p >= 14 then Packet.pull p 14;
      let a = Packet.anno p in
      a.Packet.paint <- Random.State.int rs 5 - 1;
      a.Packet.dst_ip <- dst;
      a.Packet.link_type <-
        pick [| Packet.To_host; Packet.To_host; Packet.Broadcast; Packet.To_other |];
      a.Packet.fix_ip_src <- Random.State.bool rs;
      p)

type sem_run = {
  sr_out : (bool * string) list array;
      (** per output port, in order: whether the element made the packet,
          and its bytes and annotations *)
  sr_drops : ((string * string) * int) list;  (** (class, reason) *)
  sr_spawns : string list;
  sr_work : (string * int) list;  (** summed units per work kind *)
  sr_charges : (string * int) list;  (** work reports per kind *)
}

let fingerprint p =
  let a = Packet.anno p in
  Printf.sprintf "%s|%d|%d" (Packet.to_string p) a.Packet.paint a.Packet.dst_ip

let work_units = function
  | Hooks.W_classify_interp n -> ("classify_interp", n)
  | Hooks.W_classify_compiled n -> ("classify_compiled", n)
  | Hooks.W_checksum n -> ("checksum", n)
  | Hooks.W_copy n -> ("copy", n)
  | Hooks.W_lookup n -> ("lookup", n)
  | Hooks.W_queue -> ("queue", 1)
  | Hooks.W_custom (s, n) -> ("custom " ^ s, n)

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Push [frames] into [e :: element] one at a time ([vec = 1]) or in
   vectors of [vec] through push_batch, each output port into a Discard.
   Scalar pushes arrive through the upstream [output], whose fault
   containment a vector form provides itself. *)
let sem_run ~element ~nout ~vec frames =
  let outs = Array.make nout [] in
  let drops = Hashtbl.create 8 and work = Hashtbl.create 8 in
  let charges = Hashtbl.create 8 in
  let born = Hashtbl.create 8 and spawns = ref [] in
  let idx = ref (-1) in
  let note (tr : Hooks.transfer) p =
    if tr.Hooks.tr_src_idx = !idx then
      outs.(tr.Hooks.tr_src_port) <-
        (Hashtbl.mem born (Packet.id p), fingerprint p)
        :: outs.(tr.Hooks.tr_src_port)
  in
  let hooks =
    {
      Hooks.on_transfer = note;
      on_transfer_batch =
        (fun tr batch n ->
          for i = 0 to n - 1 do
            note tr batch.(i)
          done);
      on_work =
        (fun ~idx:_ ~cls:_ w ->
          let k, n = work_units w in
          bump work k n;
          bump charges k 1);
      on_drop = (fun ~idx:_ ~cls ~reason _ -> bump drops (cls, reason) 1);
      on_spawn =
        (fun ~idx:_ ~cls:_ p ->
          Hashtbl.replace born (Packet.id p) ();
          spawns := fingerprint p :: !spawns);
      on_fault = (fun ~idx:_ ~cls:_ ~reason:_ -> ());
      on_warn = (fun ~src:_ _ -> ());
    }
  in
  let config =
    Printf.sprintf "src :: Idle -> e :: %s; %s" element
      (String.concat " "
         (List.init nout (fun k -> Printf.sprintf "e[%d] -> Discard;" k)))
  in
  let d =
    match Driver.of_string ~hooks config with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s: %s" element e
  in
  let e = Option.get (Driver.element d "e") in
  idx := e#index;
  let pkts = Array.of_list (List.map Packet.clone frames) in
  let n = Array.length pkts in
  if vec = 1 then
    Array.iter ((Option.get (Driver.element d "src"))#output 0) pkts
  else begin
    let i = ref 0 in
    while !i < n do
      let len = min vec (n - !i) in
      e#push_batch 0 (Array.sub pkts !i len);
      i := !i + len
    done
  end;
  {
    sr_out = Array.map List.rev outs;
    sr_drops = sorted drops;
    sr_spawns = List.sort compare !spawns;
    sr_work = sorted work;
    sr_charges = sorted charges;
  }

(* [born_first]: packets the element makes leave as it makes them, while
   the vector's survivors leave together once the vector is done, so on
   one port they may overtake survivors of earlier packets (the bucket
   order batching allows, DESIGN §9). Each kind keeps its own order. *)
let test_vector_equals_scalar (element, nout, ip_front, born_first) () =
  ignore (Lazy.force sem_tree);
  let frames = sem_frames ~ip_front ~seed:(Hashtbl.hash element) 200 in
  let scalar = sem_run ~element ~nout ~vec:1 frames in
  check_bool
    (element ^ ": the frames reach an output")
    true
    (Array.exists (fun o -> o <> []) scalar.sr_out);
  let split o =
    if born_first then (List.filter fst o, List.filter (fun x -> not (fst x)) o)
    else (o, [])
  in
  List.iter
    (fun vec ->
      let v = sem_run ~element ~nout ~vec frames in
      let name what = Printf.sprintf "%s, vectors of %d: %s" element vec what in
      Array.iteri
        (fun port o ->
          check_bool
            (name (Printf.sprintf "output %d in order" port))
            true
            (split o = split v.sr_out.(port)))
        scalar.sr_out;
      Alcotest.(check (list (pair (pair string string) int)))
        (name "drop reasons") scalar.sr_drops v.sr_drops;
      Alcotest.(check (list string))
        (name "spawns") scalar.sr_spawns v.sr_spawns;
      Alcotest.(check (list (pair string int)))
        (name "work units") scalar.sr_work v.sr_work;
      (* A walk or a lookup is charged once per vector, summed. *)
      let vectors = (List.length frames + vec - 1) / vec in
      List.iter
        (fun (k, n) ->
          if List.mem k [ "classify_interp"; "classify_compiled"; "lookup" ]
          then
            check_bool
              (name (Printf.sprintf "%d %s charges for %d vectors" n k vectors))
              true (n <= vectors))
        v.sr_charges)
    [ 7; 32 ]

let sem_classes =
  [
    ("Classifier(12/0800, 12/0806)", 2, false, false);
    ("IPFilter(allow dst net 10.0.0.0/8, deny all)", 1, true, false);
    ("FastClassifier@@sem", 2, false, false);
    ( "LinearIPLookup(10.0.0.0/8 0, 10.1.0.0/16 10.1.0.1 1, \
       192.168.0.0/16 2)",
      2, true, false );
    ( "LookupIPRoute(10.0.0.0/8 0, 10.1.0.0/16 10.1.0.1 1, \
       192.168.0.0/16 2)",
      2, true, false );
    ("PaintSwitch", 3, false, false);
    ("IPInputCombo(2, 1.2.3.4)", 2, false, false);
    ("IPOutputCombo(2, 10.0.0.9)", 4, true, false);
    ("Paint(3)", 1, false, false);
    ("CheckPaint(2)", 2, false, false);
    ("Strip(14)", 1, false, false);
    ("CheckIPHeader", 2, true, false);
    ("GetIPAddress(16)", 1, true, false);
    ("IPFragmenter(576)", 2, true, true);
  ]

let class_of element =
  match String.index_opt element '(' with
  | Some i -> String.sub element 0 i
  | None -> element

let sem_graph =
  "Idle -> c :: Classifier(12/0800, -); c[0] -> Strip(14) -> ck :: \
   CheckIPHeader -> GetIPAddress(16) -> rt :: LookupIPRoute(0.0.0.0/0 0) -> \
   Discard; c[1] -> Discard;"

let ip_frames n =
  List.init n (fun i ->
      host_udp ~src_if:0
        ~dst_ip:(Printf.sprintf "10.0.%d.%d" (i / 200) (i mod 200))
        ())

(* (a) A body built under null hooks must not survive set_hooks: once a
   recording work hook is installed each element charges what a router
   instantiated with it charges, and once the hooks are null again the
   bodies box no charge (minor words per packet). *)
let test_body_follows_hooks () =
  let works = Hashtbl.create 8 in
  let recording =
    {
      Hooks.null with
      Hooks.on_work =
        (fun ~idx:_ ~cls w -> bump works cls (snd (work_units w)));
    }
  in
  let drive d frames =
    let c = Option.get (Driver.element d "c") in
    let pkts = Array.of_list frames in
    Array.iter (c#push 0) (Array.sub pkts 0 8);
    c#push_batch 0 (Array.sub pkts 8 (Array.length pkts - 8))
  in
  let reference =
    match Driver.of_string ~hooks:recording sem_graph with
    | Ok d ->
        drive d (ip_frames 40);
        let r = sorted works in
        Hashtbl.reset works;
        r
    | Error e -> Alcotest.failf "%s" e
  in
  List.iter
    (fun cls ->
      check_bool (cls ^ " charges") true (List.mem_assoc cls reference))
    [ "Classifier"; "CheckIPHeader"; "LookupIPRoute" ];
  let d =
    match Driver.of_string sem_graph with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let set_hooks h =
    for i = 0 to Driver.size d - 1 do
      (Driver.element_at d i)#set_hooks h
    done
  in
  drive d (ip_frames 40);
  set_hooks recording;
  drive d (ip_frames 40);
  Alcotest.(check (list (pair string int)))
    "recording hooks: the charges of a router built with them" reference
    (sorted works);
  set_hooks Hooks.null;
  (* Scalar pushes and vectors of two, built before counting. *)
  let frames = Array.of_list (ip_frames 2000) in
  let pairs =
    Array.init 500 (fun k ->
        [| frames.(1000 + (2 * k)); frames.(1001 + (2 * k)) |])
  in
  let c = Option.get (Driver.element d "c") in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    c#push 0 frames.(i)
  done;
  Array.iter (c#push_batch 0) pairs;
  let per_pkt = (Gc.minor_words () -. before) /. 2000. in
  check_bool
    (Printf.sprintf "null hooks again: no charge boxed (%.2f words/packet)"
       per_pkt)
    true (per_pkt < 1.)

(* (b) Reconfiguring an element whose sem snapshots its configuration
   (a Classifier's tree, Paint's colour) reroutes the next pushes, scalar
   and batched. *)
let test_body_follows_reconfigure () =
  let d =
    match
      Driver.of_string
        "Idle -> c :: Classifier(12/0800, -); c[0] -> a :: Counter -> \
         Discard; c[1] -> p :: Paint(0) -> s :: PaintSwitch; s[0] -> b :: \
         Counter -> Discard; s[1] -> x :: Counter -> Discard;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let el name = Option.get (Driver.element d name) in
  let count name = List.assoc "packets" (el name)#stats in
  let c = el "c" in
  let push_both () =
    List.iter (c#push 0) (ip_frames 5);
    c#push_batch 0 (Array.of_list (ip_frames 32))
  in
  push_both ();
  check "IP frames before: output 0" 37 (count "a");
  (match c#configure "12/0806, -" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconfigure: %s" e);
  push_both ();
  check "IP frames after: output 1" 37 (count "b");
  (match (el "p")#configure "1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconfigure: %s" e);
  push_both ();
  check "repainted frames: PaintSwitch output 1" 37 (count "x");
  check "output 0 of the classifier unchanged" 37 (count "a");
  check "output 0 of the switch unchanged" 37 (count "b")

(* --- handlers ----------------------------------------------------------------- *)

let test_read_handlers () =
  let d =
    match Driver.of_string "Idle -> c :: Counter -> Discard;" with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let c = Option.get (Driver.element d "c") in
  c#push 0 (Packet.create 10);
  Alcotest.(check (option string)) "stat handler" (Some "1")
    (c#read_handler "packets");
  Alcotest.(check (option string)) "class handler" (Some "Counter")
    (c#read_handler "class");
  Alcotest.(check (option string)) "name handler" (Some "c")
    (c#read_handler "name");
  Alcotest.(check (option string)) "unknown handler" None
    (c#read_handler "zzz")

let test_write_handlers () =
  let d =
    match
      Driver.of_string
        "s :: InfiniteSource(LIMIT 100, BURST 10) -> q :: Queue(4); q -> \
         Discard;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let q = Option.get (Driver.element d "q")
  and s = Option.get (Driver.element d "s") in
  (* live reconfiguration: grow the queue, pause the source *)
  check_bool "capacity write" true (q#write_handler "capacity" "2" = Ok ());
  ignore (Driver.run_tasks_once d);
  (* a 10-packet burst hit a 2-slot queue (the Discard task drains some) *)
  check_bool "capacity honoured" true (List.assoc "length" q#stats <= 2);
  check_bool "overflow dropped" true (List.assoc "drops" q#stats >= 7);
  check_bool "pause source" true (s#write_handler "active" "false" = Ok ());
  let before = List.assoc "sent" s#stats in
  ignore (Driver.run_tasks_once d);
  check "source paused" before (List.assoc "sent" s#stats);
  check_bool "counter reset" true
    ((Option.get (Driver.element d "q"))#write_handler "reset_counts" "" = Ok ());
  check "drops cleared" 0 (List.assoc "drops" q#stats);
  check_bool "unknown write rejected" true
    (Result.is_error (q#write_handler "nope" "1"))

(* --- registry ---------------------------------------------------------------- *)

let test_registry_snapshot () =
  let restore = Registry.snapshot () in
  Registry.register ~spec:(Oclick_graph.Spec.make "Test@Snapshot")
    "Test@Snapshot" (fun _ -> assert false);
  check_bool "registered" true (Registry.spec "Test@Snapshot" <> None);
  restore ();
  check_bool "gone after restore" true (Registry.spec "Test@Snapshot" = None)

let test_registry_duplicate () =
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Registry.register: class \"Discard\" exists")
    (fun () ->
      Registry.register ~spec:(Oclick_graph.Spec.make "Discard") "Discard"
        (fun _ -> assert false))

let () =
  Alcotest.run "runtime"
    [
      ( "instantiate",
        [
          Alcotest.test_case "reports errors" `Quick
            test_instantiate_reports_all_errors;
          Alcotest.test_case "processing conflict" `Quick
            test_instantiate_rejects_conflict;
          Alcotest.test_case "lookup" `Quick test_element_lookup;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "transfers and work" `Quick
            test_hooks_see_transfers_and_work;
          Alcotest.test_case "pull reporting" `Quick
            test_pull_hook_only_on_packets;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "terminates" `Quick test_run_until_idle_terminates;
          Alcotest.test_case "round robin" `Quick test_scheduler_round_robin;
        ] );
      ( "ip-router",
        [
          Alcotest.test_case "forwards" `Quick test_router_forwards;
          Alcotest.test_case "answers ARP" `Quick test_router_answers_arp;
          Alcotest.test_case "TTL expiry ICMP" `Quick
            test_router_ttl_expiry_generates_icmp;
          Alcotest.test_case "drops broadcast" `Quick
            test_router_drops_link_broadcast_ip;
          Alcotest.test_case "fragments" `Quick
            test_router_fragments_large_packet;
          Alcotest.test_case "multi interface" `Quick
            test_router_multi_interface;
        ] );
      ( "batch-differential",
        [
          Alcotest.test_case "pure runtime" `Quick test_batch_differential;
          Alcotest.test_case "testbed under faults" `Quick
            test_testbed_batch_differential;
        ] );
      ( "sem-derived",
        List.map
          (fun ((element, _, _, _) as case) ->
            Alcotest.test_case
              ("vector = scalar: " ^ class_of element)
              `Quick (test_vector_equals_scalar case))
          sem_classes
        @ [
            Alcotest.test_case "body follows hooks" `Quick
              test_body_follows_hooks;
            Alcotest.test_case "body follows reconfigure" `Quick
              test_body_follows_reconfigure;
          ] );
      ( "handlers",
        [
          Alcotest.test_case "read" `Quick test_read_handlers;
          Alcotest.test_case "write" `Quick test_write_handlers;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot" `Quick test_registry_snapshot;
          Alcotest.test_case "duplicate" `Quick test_registry_duplicate;
        ] );
    ]
