(* Scalar vs batched transfer path on the Fig. 8 forwarding path: wall
   clock plus minor-heap allocation per forwarded packet.

   Unlike the figure sections, which report *simulated* cycles from the
   testbed cost model, this section measures real wall-clock throughput
   of the user-level driver: the full IP router graph forwarding UDP
   between two attached queue devices. The scalar variant runs the
   per-packet push/pull path with fresh allocations; the batched variant
   runs the same graph with `--batch`-style array transfers and a
   recycling packet pool. Both execute identical element code over
   identical traffic, so the ratio isolates the per-transfer overhead the
   batching work removes.

   Besides throughput, each variant reports [Gc.minor_words] consumed per
   forwarded packet over the measured windows, and a probe reports the
   same figure for the packet layer alone. The pooled figures are the
   allocation-discipline ceilings enforced by @bench-smoke via
   test/validate_batch_json.ml. *)

module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet
module Pool = Oclick_packet.Packet.Pool
module Headers = Oclick_packet.Headers
module Ethaddr = Oclick_packet.Ethaddr
module Ipaddr = Oclick_packet.Ipaddr
module Json = Oclick_obs.Json

let n_ifaces = 2
let burst = 256
let batch_size = 32
let reps = 3

type rig = {
  rg_driver : Driver.t;
  rg_devs : Netdevice.queue_device array;
  rg_pool : Pool.t option;
}

let make_rig ~batch ~pool =
  let graph = Common.base_graph n_ifaces in
  let devs =
    Array.init n_ifaces (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices =
    Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs)
  in
  let pool = if pool then Some (Pool.create ~capacity:4096 ()) else None in
  match Driver.instantiate ~devices ~batch ?pool graph with
  | Ok d -> { rg_driver = d; rg_devs = devs; rg_pool = pool }
  | Error e -> failwith ("batch bench: " ^ e)

(* The one traffic flow: host on eth0 sends UDP to the host on eth1. *)
let template =
  Headers.Build.udp
    ~src_eth:(Ethaddr.of_string_exn "00:00:c0:aa:00:02")
    ~dst_eth:(Ethaddr.of_string_exn "00:00:c0:00:00:01")
    ~src_ip:(Ipaddr.of_octets 10 0 0 2)
    ~dst_ip:(Ipaddr.of_octets 10 0 1 2)
    ~ttl:64 ()

(* Answer the router's ARP query on [dev] so the flow's next hop resolves
   before measurement starts. *)
let answer_arp (dev : Netdevice.queue_device) host_eth =
  match dev#collect with
  | Some q when Headers.Ether.ethertype q = 0x806 ->
      dev#inject
        (Headers.Build.arp_reply ~src_eth:host_eth
           ~src_ip:(Headers.Arp.target_ip ~off:14 q)
           ~dst_eth:(Headers.Arp.sender_eth ~off:14 q)
           ~dst_ip:(Headers.Arp.sender_ip ~off:14 q))
  | Some _ -> failwith "batch bench: expected an ARP query"
  | None -> failwith "batch bench: no ARP query emitted"

let prime rig =
  rig.rg_devs.(0)#inject (Packet.clone template);
  ignore (Driver.run_until_idle rig.rg_driver);
  answer_arp rig.rg_devs.(1) (Ethaddr.of_string_exn "00:00:c0:bb:01:02");
  ignore (Driver.run_until_idle rig.rg_driver);
  let rec drain n =
    match rig.rg_devs.(1)#collect with Some _ -> drain (n + 1) | None -> n
  in
  if drain 0 < 1 then failwith "batch bench: priming forward failed"

(* The drain goes through the device's batched [collect_into] (like a
   real polling peer), so the measured window has no option box per
   drained frame. *)
let drain_buf = Array.make burst (Packet.create ~headroom:0 ~tailroom:0 0)

(* One measured burst: inject [burst] copies of the template, run the
   driver to completion, collect (and with a pool, recycle) the frames
   that reached eth1. Generation cost is symmetric — one buffer fill plus
   one header blit per packet — except that the pooled variant reuses
   recycled buffers where the scalar variant allocates fresh ones. *)
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
    let got = rig.rg_devs.(1)#collect_into drain_buf in
    if got = 0 then n
    else begin
      (match rig.rg_pool with
      | Some pool ->
          for i = 0 to got - 1 do
            Pool.recycle pool drain_buf.(i)
          done
      | None -> ());
      drain (n + got)
    end
  in
  drain 0

type result = {
  r_name : string;
  r_batch : int;
  r_pool : bool;
  r_offered : int;
  r_forwarded : int;
  r_seconds : float;
  r_pps : float;
  r_words_per_pkt : float;
}

(* The packet-layer steady state in isolation: alloc from the pool, fill
   the frame, read it back, checksum the header, recycle — the complete
   per-packet lifecycle with no driver or element scheduling around it.
   Recycled descriptors keep their buffers, so every step is bookkeeping
   over bytes that already exist and the figure must be zero; the
   end-to-end variants add the interpreter's per-batch boxing on top,
   which is scheduler cost, not packet-representation cost. *)
let packet_layer_words ~packets =
  let pool = Pool.create ~capacity:64 () in
  let len = Packet.length template in
  let step () =
    let p = Pool.alloc pool len in
    Packet.blit ~src:template ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
    ignore (Packet.get_u32 p 26);
    Packet.set_u16 p 24 0;
    ignore (Packet.ones_complement_sum p ~pos:14 ~len:20);
    Pool.recycle pool p
  in
  for _ = 1 to 1_000 do step () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to packets do step () done;
  (Gc.minor_words () -. w0) /. float_of_int packets

let run_mode ~name ~batch ~pool ~packets =
  let rig = make_rig ~batch ~pool in
  prime rig;
  let bursts = max 1 (packets / burst) in
  (* Warmup fills the pool, so the measured windows see the recycling
     steady state rather than cold allocations. *)
  for _ = 1 to max 1 (bursts / 10) do
    ignore (run_burst rig)
  done;
  (* Wall clock is best-of-[reps] windows (Common.best_of_windows;
     scheduling noise dominates short smoke windows); allocation is
     summed across every window — it is deterministic per packet, and
     summing keeps the figure an average over all forwarded traffic. *)
  let words = ref 0.0 in
  let w =
    Common.best_of_windows ~reps (fun () ->
        let w0 = Gc.minor_words () in
        let fwd = ref 0 in
        for _ = 1 to bursts do
          fwd := !fwd + run_burst rig
        done;
        words := !words +. (Gc.minor_words () -. w0);
        !fwd)
  in
  let forwarded = w.Common.w_total_forwarded in
  {
    r_name = name;
    r_batch = batch;
    r_pool = pool;
    r_offered = reps * bursts * burst;
    r_forwarded = forwarded;
    r_seconds = w.Common.w_seconds;
    r_pps = w.Common.w_pps;
    r_words_per_pkt = !words /. float_of_int (max 1 forwarded);
  }

let variant_json r =
  Json.Obj
    [
      ("name", Json.String r.r_name);
      ("batch", Json.Int r.r_batch);
      ("pool", Json.Bool r.r_pool);
      ("offered", Json.Int r.r_offered);
      ("forwarded", Json.Int r.r_forwarded);
      ("seconds", Json.Float r.r_seconds);
      ("pps", Json.Float r.r_pps);
      ("minor_words_per_packet", Json.Float r.r_words_per_pkt);
    ]

let print_variant r =
  Printf.printf "%-26s %12d %12.1f %10.3f %14.1f\n" r.r_name r.r_forwarded
    (Common.kpps r.r_pps) r.r_seconds r.r_words_per_pkt

let run () =
  Common.section "batch: scalar vs batched transfer path (wall clock)";
  let packets = if !Common.smoke then 2_048 else 262_144 in
  Printf.printf
    "IP router (%d interfaces), one UDP flow, %d packets per window, best \
     of %d windows\n"
    n_ifaces packets reps;
  let scalar = run_mode ~name:"scalar" ~batch:1 ~pool:false ~packets in
  let batched =
    run_mode ~name:"batched" ~batch:batch_size ~pool:true ~packets
  in
  let layer = packet_layer_words ~packets in
  let speedup = batched.r_pps /. scalar.r_pps in
  Printf.printf "\n%-26s %12s %12s %10s %14s\n" "variant" "forwarded"
    "kpkts/s" "time s" "minor w/pkt";
  print_variant scalar;
  print_variant batched;
  Printf.printf
    "\nspeedup: %.2fx (batch %d + pool vs scalar)\n\
     packet-layer steady state (alloc/fill/read/checksum/recycle): %.2f \
     words/pkt\n"
    speedup batch_size layer;
  List.iter
    (fun r ->
      if r.r_forwarded <> r.r_offered then
        Printf.printf "warning: lossy run (%s %d/%d)\n" r.r_name r.r_forwarded
          r.r_offered)
    [ scalar; batched ];
  Common.write_json ~section:"batch"
    (Json.Obj
       [
         ("section", Json.String "batch");
         ("graph", Json.String "ip-router");
         ("interfaces", Json.Int n_ifaces);
         ("burst", Json.Int burst);
         ("smoke", Json.Bool !Common.smoke);
         ("variants", Json.List [ variant_json scalar; variant_json batched ]);
         ("speedup", Json.Float speedup);
         ("packet_layer_words_per_packet", Json.Float layer);
       ])
