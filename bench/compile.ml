(* Interpreted vs compiled datapath on the Fig. 8 forwarding path.

   Like the batch section, this measures real wall-clock throughput of
   the user-level driver rather than modeled cycles: the full IP router
   graph forwarding UDP between two attached queue devices. The
   interpreted variants run the stock push path (per-hop port lookup,
   method dispatch, hook bookkeeping); the compiled variants run the
   same instantiated graph after the whole-graph datapath compiler
   (lib/compile) has replaced each connection with a direct closure and
   fused the single-in/single-out runs. Both execute identical element
   semantics over identical traffic, so the ratio isolates the dispatch
   overhead the compiler removes — scalar and at batch 32 with the
   recycling pool, plus a classifier-heavy chain where the compiled
   decision trees matter most. *)

module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Pool = Oclick_packet.Packet.Pool
module Headers = Oclick_packet.Headers
module Ethaddr = Oclick_packet.Ethaddr
module Ipaddr = Oclick_packet.Ipaddr
module Json = Oclick_obs.Json

let () = Oclick_compile.register ()

let n_ifaces = 2
let burst = 256

type rig = {
  rg_driver : Driver.t;
  rg_devs : Netdevice.queue_device array;
  rg_pool : Pool.t option;
}

let make_rig ~graph ~batch ~pool ~compile =
  let devs =
    Array.init n_ifaces (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices =
    Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs)
  in
  let pool = if pool then Some (Pool.create ~capacity:4096 ()) else None in
  match Driver.instantiate ~devices ~batch ?pool ~compile graph with
  | Ok d -> { rg_driver = d; rg_devs = devs; rg_pool = pool }
  | Error e -> failwith ("compile bench: " ^ e)

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
  | Some _ -> failwith "compile bench: expected an ARP query"
  | None -> failwith "compile bench: no ARP query emitted"

(* Resolve the router's ARP for the flow's next hop before measuring.
   The classifier chain forwards frames verbatim, so its priming packet
   arrives directly. *)
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
  if drain 0 < 1 then failwith "compile bench: priming forward failed"

let run_burst rig =
  let len = Packet.length template in
  for _ = 1 to burst do
    let p =
      match rig.rg_pool with
      | Some pool -> Pool.alloc pool len
      | None -> Packet.create len
    in
    Packet.blit ~src:template ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
    rig.rg_devs.(0)#inject p
  done;
  ignore (Driver.run_until_idle rig.rg_driver);
  let rec drain n =
    match rig.rg_devs.(1)#collect with
    | Some p ->
        (match rig.rg_pool with
        | Some pool -> Pool.recycle pool p
        | None -> ());
        drain (n + 1)
    | None -> n
  in
  drain 0

(* Best-of-[reps] wall-clock measurement (Common.best_of_windows): each
   repetition injects and forwards the full packet budget, and the
   fastest repetition is reported. *)
let run_mode ~graph ~arp ~batch ~pool ~compile ~packets =
  let rig = make_rig ~graph ~batch ~pool ~compile in
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
  (w.Common.w_forwarded, bursts * burst, w.Common.w_seconds, w.Common.w_pps)

(* A classifier-heavy straight-line config: twelve Classifier stages
   each re-matching a header byte of the template flow (ethertype,
   IP version/IHL, TTL, protocol), fall-through to Discard. Every
   stage is single-in/single-out on the hot path, so the compiled
   variant fuses the whole chain behind compiled decision trees. *)
let classifier_graph =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let patterns = [| "12/0800"; "14/45"; "22/40"; "23/11" |] in
  let n = 12 in
  add "pd :: PollDevice(eth0);\n";
  add "outq :: Queue(200);\n";
  add "td :: ToDevice(eth1);\n";
  for i = 0 to n - 1 do
    add "k%d :: Classifier(%s, -);\n" i patterns.(i mod Array.length patterns)
  done;
  add "pd -> k0;\n";
  for i = 0 to n - 2 do
    add "k%d [0] -> k%d;\n" i (i + 1);
    add "k%d [1] -> Discard;\n" i
  done;
  add "k%d [0] -> outq -> td;\n" (n - 1);
  add "k%d [1] -> Discard;\n" (n - 1);
  Oclick.Ip_router.graph (Buffer.contents buf)

let variant_json ~name ~batch ~pool ~compile (fwd, off, dt, pps) =
  Json.Obj
    [
      ("name", Json.String name);
      ("batch", Json.Int batch);
      ("pool", Json.Bool pool);
      ("compiled", Json.Bool compile);
      ("offered", Json.Int off);
      ("forwarded", Json.Int fwd);
      ("seconds", Json.Float dt);
      ("pps", Json.Float pps);
    ]

let print_variant name (fwd, _off, dt, pps) =
  Printf.printf "%-30s %12d %12.1f %10.3f\n" name fwd (Common.kpps pps) dt

let run () =
  Common.section "compile: interpreted vs compiled datapath (wall clock)";
  let packets = if !Common.smoke then 2_048 else 262_144 in
  let batch_size = 32 in
  let ip = Common.base_graph n_ifaces in
  Printf.printf
    "IP router (%d interfaces), one UDP flow, %d packets per variant\n\n"
    n_ifaces packets;
  let is_s = run_mode ~graph:ip ~arp:true ~batch:1 ~pool:false ~compile:false
      ~packets
  and cp_s = run_mode ~graph:ip ~arp:true ~batch:1 ~pool:false ~compile:true
      ~packets
  and is_b = run_mode ~graph:ip ~arp:true ~batch:batch_size ~pool:true
      ~compile:false ~packets
  and cp_b = run_mode ~graph:ip ~arp:true ~batch:batch_size ~pool:true
      ~compile:true ~packets
  in
  let kf_i = run_mode ~graph:classifier_graph ~arp:false ~batch:1 ~pool:false
      ~compile:false ~packets
  and kf_c = run_mode ~graph:classifier_graph ~arp:false ~batch:1 ~pool:false
      ~compile:true ~packets
  in
  let pps (_, _, _, v) = v in
  let speedup_scalar = pps cp_s /. pps is_s in
  let speedup_batch = pps cp_b /. pps is_b in
  let speedup_classifier = pps kf_c /. pps kf_i in
  Printf.printf "%-30s %12s %12s %10s\n" "variant" "forwarded" "kpkts/s"
    "time s";
  print_variant "ip/interpreted scalar" is_s;
  print_variant "ip/compiled scalar" cp_s;
  print_variant
    (Printf.sprintf "ip/interpreted batch %d+pool" batch_size)
    is_b;
  print_variant (Printf.sprintf "ip/compiled batch %d+pool" batch_size) cp_b;
  print_variant "classifier12/interpreted" kf_i;
  print_variant "classifier12/compiled" kf_c;
  Printf.printf
    "\nspeedup: scalar %.2fx, batch %.2fx, classifier chain %.2fx\n"
    speedup_scalar speedup_batch speedup_classifier;
  Common.write_json ~section:"compile"
    (Json.Obj
       [
         ("section", Json.String "compile");
         ("interfaces", Json.Int n_ifaces);
         ("burst", Json.Int burst);
         ("smoke", Json.Bool !Common.smoke);
         ( "variants",
           Json.List
             [
               variant_json ~name:"ip/interpreted-scalar" ~batch:1 ~pool:false
                 ~compile:false is_s;
               variant_json ~name:"ip/compiled-scalar" ~batch:1 ~pool:false
                 ~compile:true cp_s;
               variant_json ~name:"ip/interpreted-batch" ~batch:batch_size
                 ~pool:true ~compile:false is_b;
               variant_json ~name:"ip/compiled-batch" ~batch:batch_size
                 ~pool:true ~compile:true cp_b;
               variant_json ~name:"classifier12/interpreted" ~batch:1
                 ~pool:false ~compile:false kf_i;
               variant_json ~name:"classifier12/compiled" ~batch:1 ~pool:false
                 ~compile:true kf_c;
             ] );
         ("speedup_scalar", Json.Float speedup_scalar);
         ("speedup_batch", Json.Float speedup_batch);
         ("speedup_classifier", Json.Float speedup_classifier);
       ])
