(* Compiled vs FDD-fused datapath on a cascaded-classifier config.

   The whole-graph compiler (bench/compile.ml) already removes dispatch
   overhead: every stage of a classifier cascade runs as a compiled
   decision tree behind a direct-call connection. What it cannot remove
   is the cascade itself — twelve stages re-testing the same header
   bytes still walk twelve trees per packet. The FDD pass collapses the
   whole region into one forwarding decision diagram, so tests repeated
   across stages are decided once and shared subtrees are hash-consed:
   the per-packet cost drops from (stages x tests) to the number of
   *distinct* tests, plus one cheap per-member bookkeeping op each.

   Both variants run identical element semantics over identical traffic
   through the same instantiated graph, so the ratio isolates exactly
   what fusion removes. The IP-router rows are the honest context: its
   regions are short (classifier + route + combo), so fusion there is
   roughly neutral on wall clock — the cascade is where the paper-style
   win lives. *)

module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ethaddr = Oclick_packet.Ethaddr
module Ipaddr = Oclick_packet.Ipaddr
module Fdd = Oclick_fdd
module Json = Oclick_obs.Json

let () = Oclick_compile.register ()

let n_ifaces = 2
let burst = 256
let stages = 12

type rig = {
  rg_driver : Driver.t;
  rg_devs : Netdevice.queue_device array;
}

let make_rig ~graph ~batch ~compile ~fuse =
  let devs =
    Array.init n_ifaces (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices =
    Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs)
  in
  match Driver.instantiate ~devices ~batch ~compile ~fuse graph with
  | Ok d -> { rg_driver = d; rg_devs = devs }
  | Error e -> failwith ("fdd bench: " ^ e)

(* The one traffic flow: host on eth0 sends UDP to the host on eth1. *)
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
  | Some _ -> failwith "fdd bench: expected an ARP query"
  | None -> failwith "fdd bench: no ARP query emitted"

let prime ~arp rig =
  rig.rg_devs.(0)#inject (Packet.clone template);
  ignore (Driver.run_until_idle rig.rg_driver);
  if arp then begin
    answer_arp rig.rg_devs.(1) (Ethaddr.of_string_exn "00:00:c0:bb:01:02");
    ignore (Driver.run_until_idle rig.rg_driver)
  end;
  let rec drain n =
    match rig.rg_devs.(1)#collect with Some _ -> drain (n + 1) | None -> n
  in
  if drain 0 < 1 then failwith "fdd bench: priming forward failed"

let run_burst rig =
  let len = Packet.length template in
  for _ = 1 to burst do
    let p = Packet.create len in
    Packet.blit ~src:template ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
    rig.rg_devs.(0)#inject p
  done;
  ignore (Driver.run_until_idle rig.rg_driver);
  let rec drain n =
    match rig.rg_devs.(1)#collect with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  drain 0

(* Best-of-[reps] wall-clock measurement (Common.best_of_windows), as in
   bench/compile.ml: the fastest repetition is the quantity the
   compiled/fused ratio needs. *)
let run_mode ~graph ~arp ~batch ~compile ~fuse ~packets =
  let rig = make_rig ~graph ~batch ~compile ~fuse in
  let regions =
    if fuse then
      match Oclick_compile.last_stats () with
      | Some st -> st.Oclick_compile.st_regions
      | None -> []
    else []
  in
  prime ~arp rig;
  let bursts = max 1 (packets / burst) in
  let reps = if !Common.smoke then 1 else 3 in
  for _ = 1 to max 1 (bursts / 10) do
    ignore (run_burst rig)
  done;
  let w =
    Common.best_of_windows ~reps (fun () ->
        let forwarded = ref 0 in
        for _ = 1 to bursts do
          forwarded := !forwarded + run_burst rig
        done;
        !forwarded)
  in
  ((w.Common.w_forwarded, bursts * burst, w.Common.w_seconds, w.Common.w_pps),
   regions)

(* The cascade: [stages] identical Classifier stages, each re-matching
   the flow's ethertype, IP version/IHL, TTL, protocol, and both
   addresses — six word tests per stage, all redundant after the first
   stage. The compiled path walks stages x 6 tests per packet; the FDD
   decides each distinct test once, so the fused diagram is one stage
   deep regardless of cascade length. Fall-throughs go to Discard, so
   the region has real multi-exit structure, not a straight line. *)
let stage_pattern =
  "12/0800 14/45 22/40 23/11 26/0a000002 30/0a000102"

let cascade_graph =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "pd :: PollDevice(eth0);\n";
  add "outq :: Queue(200);\n";
  add "td :: ToDevice(eth1);\n";
  for i = 0 to stages - 1 do
    add "k%d :: Classifier(%s, -);\n" i stage_pattern
  done;
  add "pd -> k0;\n";
  for i = 0 to stages - 2 do
    add "k%d [0] -> k%d;\n" i (i + 1);
    add "k%d [1] -> Discard;\n" i
  done;
  add "k%d [0] -> outq -> td;\n" (stages - 1);
  add "k%d [1] -> Discard;\n" (stages - 1);
  Oclick.Ip_router.graph (Buffer.contents buf)

let variant_json ~name ~batch ~fuse (fwd, off, dt, pps) =
  Json.Obj
    [
      ("name", Json.String name);
      ("batch", Json.Int batch);
      ("compiled", Json.Bool true);
      ("fused", Json.Bool fuse);
      ("offered", Json.Int off);
      ("forwarded", Json.Int fwd);
      ("seconds", Json.Float dt);
      ("pps", Json.Float pps);
    ]

let region_json (r : Fdd.region) =
  Json.Obj
    [
      ("entry", Json.String r.Fdd.rg_entry);
      ( "members",
        Json.List
          (List.map (fun m -> Json.String m) r.Fdd.rg_members) );
      ("nodes", Json.Int r.Fdd.rg_nodes);
      ("actions", Json.Int r.Fdd.rg_actions);
    ]

let print_variant name (fwd, _off, dt, pps) =
  Printf.printf "%-34s %12d %12.1f %10.3f\n" name fwd (Common.kpps pps) dt

let run () =
  Common.section "fdd: compiled vs FDD-fused datapath (wall clock)";
  let packets = if !Common.smoke then 2_048 else 262_144 in
  let batch_size = 32 in
  Printf.printf
    "classifier cascade (%d stages, %d tests each), one UDP flow, %d \
     packets per variant\n\n"
    stages 6 packets;
  let kc_s, _ =
    run_mode ~graph:cascade_graph ~arp:false ~batch:1 ~compile:true
      ~fuse:false ~packets
  in
  let kf_s, cascade_regions =
    run_mode ~graph:cascade_graph ~arp:false ~batch:1 ~compile:false
      ~fuse:true ~packets
  in
  let kc_b, _ =
    run_mode ~graph:cascade_graph ~arp:false ~batch:batch_size ~compile:true
      ~fuse:false ~packets
  in
  let kf_b, _ =
    run_mode ~graph:cascade_graph ~arp:false ~batch:batch_size ~compile:false
      ~fuse:true ~packets
  in
  let ip = Common.base_graph n_ifaces in
  let ip_c, _ =
    run_mode ~graph:ip ~arp:true ~batch:1 ~compile:true ~fuse:false ~packets
  in
  let ip_f, ip_regions =
    run_mode ~graph:ip ~arp:true ~batch:1 ~compile:false ~fuse:true ~packets
  in
  let pps (_, _, _, v) = v in
  let speedup_scalar = pps kf_s /. pps kc_s in
  let speedup_batch = pps kf_b /. pps kc_b in
  let speedup_ip = pps ip_f /. pps ip_c in
  Printf.printf "%-34s %12s %12s %10s\n" "variant" "forwarded" "kpkts/s"
    "time s";
  print_variant "cascade12/compiled scalar" kc_s;
  print_variant "cascade12/fused scalar" kf_s;
  print_variant
    (Printf.sprintf "cascade12/compiled batch %d" batch_size)
    kc_b;
  print_variant (Printf.sprintf "cascade12/fused batch %d" batch_size) kf_b;
  print_variant "ip/compiled scalar" ip_c;
  print_variant "ip/fused scalar" ip_f;
  (match cascade_regions with
  | [] -> Printf.printf "\n(no fused region formed on the cascade!)\n"
  | rs ->
      Printf.printf "\nfused regions (cascade):\n";
      List.iter
        (fun (r : Fdd.region) ->
          Printf.printf "  %s + %d members: %d nodes, %d actions\n"
            r.Fdd.rg_entry
            (List.length r.Fdd.rg_members)
            r.Fdd.rg_nodes r.Fdd.rg_actions)
        rs);
  Printf.printf
    "\nspeedup over compiled: cascade scalar %.2fx, cascade batch %.2fx, \
     ip router %.2fx\n"
    speedup_scalar speedup_batch speedup_ip;
  Common.write_json ~section:"fdd"
    (Json.Obj
       [
         ("section", Json.String "fdd");
         ("stages", Json.Int stages);
         ("burst", Json.Int burst);
         ("smoke", Json.Bool !Common.smoke);
         ( "variants",
           Json.List
             [
               variant_json ~name:"cascade12/compiled-scalar" ~batch:1
                 ~fuse:false kc_s;
               variant_json ~name:"cascade12/fused-scalar" ~batch:1 ~fuse:true
                 kf_s;
               variant_json ~name:"cascade12/compiled-batch" ~batch:batch_size
                 ~fuse:false kc_b;
               variant_json ~name:"cascade12/fused-batch" ~batch:batch_size
                 ~fuse:true kf_b;
               variant_json ~name:"ip/compiled-scalar" ~batch:1 ~fuse:false
                 ip_c;
               variant_json ~name:"ip/fused-scalar" ~batch:1 ~fuse:true ip_f;
             ] );
         ("cascade_regions", Json.List (List.map region_json cascade_regions));
         ("ip_regions", Json.List (List.map region_json ip_regions));
         ("speedup_cascade_scalar", Json.Float speedup_scalar);
         ("speedup_cascade_batch", Json.Float speedup_batch);
         ("speedup_ip", Json.Float speedup_ip);
       ])
