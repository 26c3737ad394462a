(* Production-scale route lookup: the DIR-24-8 trie behind LookupIPRoute
   against the paper-era linear scan (LinearIPLookup), at table sizes the
   paper never had to face.

   Part one is an element-level lookup microbench: for each table size, a
   one-element rig (the route element with every output into a Discard)
   is driven with the same deterministic probe stream through all four
   datapath shapes — linear scan, trie scalar push, trie push_batch, and
   the trie's route leaf, the closure its compiled body and fused
   regions call (Region.Route's [rt_make ~lean_work:true]). All four pay
   the same per-packet harness cost, so the ratios isolate the lookup
   structure. A differential pass (same probes through the linear and
   trie route leaves, comparing output port and gateway-rewritten
   destination) guards the numbers.

   Part two is the end-to-end check: the Fig. 8 two-interface router
   forwarding a UDP flow, with the routing table inflated by
   Routegen-generated DFZ-shaped ballast. DIR-24-8 lookups are
   table-size-independent, so forwarding pps should not care. *)

module Driver = Oclick_runtime.Driver
module Region = Oclick_runtime.Region
module Netdevice = Oclick_runtime.Netdevice
module Router = Oclick_graph.Router
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ethaddr = Oclick_packet.Ethaddr
module Ipaddr = Oclick_packet.Ipaddr
module Routegen = Oclick_lpm.Routegen
module Json = Oclick_obs.Json

let nports = 8
let batch_size = 256

(* --- part one: the lookup rig --- *)

let lookup_rig cls routes =
  let buf = Buffer.create (64 + (Array.length routes * 24)) in
  Buffer.add_string buf ("rt :: " ^ cls ^ "(");
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Routegen.route_to_string r))
    routes;
  Buffer.add_string buf ");\nIdle -> rt;\n";
  for i = 0 to nports - 1 do
    Buffer.add_string buf (Printf.sprintf "rt[%d] -> Discard;\n" i)
  done;
  let graph =
    match Router.parse_string (Buffer.contents buf) with
    | Ok g -> g
    | Error e -> failwith ("lpm bench: parse: " ^ e)
  in
  match Driver.instantiate graph with
  | Ok d -> (
      match Driver.element d "rt" with
      | Some e -> e
      | None -> failwith "lpm bench: no rt element")
  | Error e -> failwith ("lpm bench: instantiate: " ^ e)

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let scalar_rate e probes reps =
  let p = Packet.create 64 in
  let n = Array.length probes in
  let dt =
    time (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            (Packet.anno p).Packet.dst_ip <- probes.(i);
            e#push 0 p
          done
        done)
  in
  (reps * n, dt)

let batch_rate e probes reps =
  let batch = Array.init batch_size (fun _ -> Packet.create 64) in
  let n = Array.length probes in
  let chunks = n / batch_size in
  let dt =
    time (fun () ->
        for _ = 1 to reps do
          for c = 0 to chunks - 1 do
            for j = 0 to batch_size - 1 do
              (Packet.anno batch.(j)).Packet.dst_ip
              <- probes.((c * batch_size) + j)
            done;
            e#push_batch 0 batch
          done
        done)
  in
  (reps * chunks * batch_size, dt)

(* The element's route leaf, as its compiled body and fused regions
   call it: look up, rewrite the gateway annotation, and return the
   output port (Region.consumed when the lookup consumed the packet).
   The element's own push and push_batch are derived from the same sem:
   push runs this leaf, push_batch its vector form. *)
let route_leaf e =
  match e#region_sem with
  | Some (Region.Route { rt_make; _ }) -> rt_make ~lean_work:true
  | _ -> failwith "lpm bench: element has no route sem"

let compiled_rate e probes reps =
  let f = route_leaf e in
  let p = Packet.create 64 in
  let n = Array.length probes in
  let dt =
    time (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            (Packet.anno p).Packet.dst_ip <- probes.(i);
            ignore (f p)
          done
        done)
  in
  (reps * n, dt)

(* Same probes through both backends' route leaves, comparing output
   port and (gateway-rewritten) destination annotation. *)
let differential linear_e trie_e probes =
  let f_lin = route_leaf linear_e and f_trie = route_leaf trie_e in
  let p = Packet.create 64 in
  Array.for_all
    (fun dst ->
      (Packet.anno p).Packet.dst_ip <- dst;
      let lin_port = f_lin p in
      let lin_dst = (Packet.anno p).Packet.dst_ip in
      (Packet.anno p).Packet.dst_ip <- dst;
      f_trie p = lin_port && (Packet.anno p).Packet.dst_ip = lin_dst)
    probes

let variant_json name extra (lookups, dt) =
  let mlps = float_of_int lookups /. dt /. 1e6 in
  ( mlps,
    Json.Obj
      (( [
           ("name", Json.String name);
           ("lookups", Json.Int lookups);
           ("seconds", Json.Float dt);
           ("mlookups_per_s", Json.Float mlps);
         ]
       @ extra )) )

let bench_size size =
  let routes = Routegen.generate ~seed:(42 + size) ~n:size ~nports () in
  let n_probes = if !Common.smoke then 8_192 else 262_144 in
  let probes = Routegen.probe_dsts ~seed:7 ~routes ~n:n_probes () in
  (* The linear scan is O(table size) per lookup: cap its probe count so
     big tables stay measurable, keeping a multiple of the batch size. *)
  let n_linear =
    min n_probes
      (max batch_size (256 * 1024 * 1024 / size / batch_size * batch_size))
  in
  let linear_probes = Array.sub probes 0 n_linear in
  let reps = if !Common.smoke then 1 else 4 in
  let linear_e = lookup_rig "LinearIPLookup" routes in
  let trie_e = lookup_rig "LookupIPRoute" routes in
  let diff_ok = differential linear_e trie_e linear_probes in
  let lin_mlps, lin_j =
    variant_json "linear" [] (scalar_rate linear_e linear_probes 1)
  in
  let trie_mlps, trie_j =
    variant_json "trie_scalar" [] (scalar_rate trie_e probes reps)
  in
  let _, trie_b_j =
    variant_json "trie_batch"
      [ ("batch", Json.Int batch_size) ]
      (batch_rate trie_e probes reps)
  in
  let _, trie_c_j =
    variant_json "trie_compiled" [] (compiled_rate trie_e probes reps)
  in
  let speedup = trie_mlps /. lin_mlps in
  let stat k = List.assoc k trie_e#stats in
  Printf.printf "%9d %12.2f %12.2f %12.2f %12.2f %9.1fx %6s %11d %8d\n" size
    lin_mlps trie_mlps
    (match trie_b_j with
    | Json.Obj kvs -> (
        match List.assoc "mlookups_per_s" kvs with
        | Json.Float f -> f
        | _ -> 0.)
    | _ -> 0.)
    (match trie_c_j with
    | Json.Obj kvs -> (
        match List.assoc "mlookups_per_s" kvs with
        | Json.Float f -> f
        | _ -> 0.)
    | _ -> 0.)
    speedup
    (if diff_ok then "ok" else "FAIL")
    (stat "trie_bytes") (stat "leaf_blocks");
  Json.Obj
    [
      ("routes", Json.Int size);
      ("trie_bytes", Json.Int (stat "trie_bytes"));
      ("leaf_blocks", Json.Int (stat "leaf_blocks"));
      ("differential_ok", Json.Bool diff_ok);
      ("speedup_trie_vs_linear", Json.Float speedup);
      ("variants", Json.List [ lin_j; trie_j; trie_b_j; trie_c_j ]);
    ]

(* --- part two: end-to-end Fig. 8 with table ballast --- *)

let n_ifaces = 2
let burst = 256

let e2e_rig ~extra_routes =
  let extra =
    Array.to_list
      (Array.map Routegen.route_to_string
         (Routegen.generate ~seed:99 ~default_route:false ~n:extra_routes
            ~nports:(n_ifaces + 1) ()))
  in
  let graph =
    Oclick.Ip_router.graph
      (Oclick.Ip_router.config ~extra_routes:extra
         (Oclick.Ip_router.standard_interfaces n_ifaces))
  in
  let devs =
    Array.init n_ifaces (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  match Driver.instantiate ~devices ~batch:32 graph with
  | Ok d -> (d, devs)
  | Error e -> failwith ("lpm bench: e2e instantiate: " ^ e)

let template =
  Headers.Build.udp
    ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
    ~dst_eth:(Ethaddr.of_string_exn "00:00:c0:00:00:01")
    ~src_ip:(Ipaddr.of_octets 10 0 0 2)
    ~dst_ip:(Ipaddr.of_octets 10 0 1 2)
    ~ttl:64 ()

let answer_arp (dev : Netdevice.queue_device) host_eth =
  match dev#collect with
  | Some q when Headers.Ether.ethertype q = 0x806 ->
      dev#inject
        (Headers.Build.arp_reply ~src_eth:host_eth
           ~src_ip:(Headers.Arp.target_ip ~off:14 q)
           ~dst_eth:(Headers.Arp.sender_eth ~off:14 q)
           ~dst_ip:(Headers.Arp.sender_ip ~off:14 q))
  | Some _ -> failwith "lpm bench: expected an ARP query"
  | None -> failwith "lpm bench: no ARP query emitted"

let prime driver (devs : Netdevice.queue_device array) =
  devs.(0)#inject (Packet.clone template);
  ignore (Driver.run_until_idle driver);
  answer_arp devs.(1) (Ethaddr.of_string_exn "00:00:c0:bb:01:02");
  ignore (Driver.run_until_idle driver);
  let rec drain n =
    match devs.(1)#collect with Some _ -> drain (n + 1) | None -> n
  in
  if drain 0 < 1 then failwith "lpm bench: priming forward failed"

let run_burst driver (devs : Netdevice.queue_device array) =
  let len = Packet.length template in
  for _ = 1 to burst do
    let p = Packet.create len in
    Packet.blit ~src:template ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
    devs.(0)#inject p
  done;
  ignore (Driver.run_until_idle driver);
  let rec drain n =
    match devs.(1)#collect with Some _ -> drain (n + 1) | None -> n
  in
  drain 0

let e2e_pps ~extra_routes ~packets =
  let driver, devs = e2e_rig ~extra_routes in
  prime driver devs;
  let bursts = max 1 (packets / burst) in
  for _ = 1 to max 1 (bursts / 10) do
    ignore (run_burst driver devs)
  done;
  let forwarded = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to bursts do
    forwarded := !forwarded + run_burst driver devs
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (!forwarded, bursts * burst, float_of_int !forwarded /. dt)

let run () =
  Common.section "lpm: DIR-24-8 trie vs linear route lookup (wall clock)";
  let sizes =
    if !Common.smoke then [ 1_000; 10_000 ]
    else [ 1_000; 100_000; 1_000_000 ]
  in
  Printf.printf
    "route element rig, %d output ports, Mlookups/s (element push incl. \
     packet handling)\n\n"
    nports;
  Printf.printf "%9s %12s %12s %12s %12s %10s %6s %11s %8s\n" "routes"
    "linear" "trie" "trie+batch" "compiled" "speedup" "diff" "trie_bytes"
    "blocks";
  let size_rows = List.map bench_size sizes in
  let extra = if !Common.smoke then 512 else 100_000 in
  let packets = if !Common.smoke then 2_048 else 65_536 in
  let base_fwd, base_off, base_pps = e2e_pps ~extra_routes:0 ~packets in
  let big_fwd, big_off, big_pps = e2e_pps ~extra_routes:extra ~packets in
  Printf.printf
    "\nend-to-end fig8 (2 interfaces, batch 32): %.1f kpps baseline (%d/%d), \
     %.1f kpps with %d ballast routes (%d/%d)\n"
    (Common.kpps base_pps) base_fwd base_off (Common.kpps big_pps) extra
    big_fwd big_off;
  Common.write_json ~section:"lpm"
    (Json.Obj
       [
         ("section", Json.String "lpm");
         ("smoke", Json.Bool !Common.smoke);
         ("nports", Json.Int nports);
         ("batch", Json.Int batch_size);
         ("sizes", Json.List size_rows);
         ( "e2e",
           Json.Obj
             [
               ("graph", Json.String "ip-router");
               ("interfaces", Json.Int n_ifaces);
               ("extra_routes", Json.Int extra);
               ("offered", Json.Int big_off);
               ("forwarded", Json.Int big_fwd);
               ("baseline_pps", Json.Float base_pps);
               ("bigtable_pps", Json.Float big_pps);
             ] );
       ])
