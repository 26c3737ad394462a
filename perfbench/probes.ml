(* Layer probes for the traced run: each one times calls into one lib/
   module's public functions over the workload's own inputs — its
   configuration, its frames, its destinations, its route updates.
   Per-packet times are spread over every packet of the stream, so a
   layer the workload does not use reads about 0: its probe runs over an
   empty work list and times only the loop around it. *)

module Packet = Oclick_packet.Packet
module Tree = Oclick_classifier.Tree
module Lpm = Oclick_lpm.Dir24_8
module Spsc = Oclick_runtime.Spsc

let now = Spans.now_ns

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median wall time in ns of [reps] calls to [f], with the last call's
   result. *)
let timed ~reps f =
  let last = ref None in
  let ts =
    Array.init reps (fun _ ->
        let t0 = now () in
        let r = f () in
        let t1 = now () in
        last := Some r;
        float_of_int (t1 - t0))
  in
  (median_f ts, Option.get !last)

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* --- lang, optim, runtime set-up ------------------------------------------ *)

let parse config =
  let ast = ok "parse" (Oclick_lang.Parser.parse config) in
  ok "flatten" (Oclick_lang.Flatten.flatten ast)

let graph_of config = ok "graph" (Oclick_graph.Router.of_ast (parse config))

let devices (w : Gen.t) =
  List.init w.w_ndevs (fun i ->
      (new Oclick_runtime.Netdevice.queue_device (Printf.sprintf "eth%d" i) ()
        :> Oclick_runtime.Netdevice.t))

let instantiate w graph =
  ok "instantiate" (Oclick_runtime.Driver.instantiate ~devices:(devices w) graph)

(* --- classifier ------------------------------------------------------------ *)

type classifier = { interp_ns : float; compiled_ns : float; tests : float }

let classifier (w : Gen.t) (pkts : Packet.t array) =
  let trees =
    Array.of_list
      (List.map
         (fun c ->
           Oclick_classifier.Optimize.optimize
             (ok "classifier" (Oclick_classifier.Pattern.tree_of_config c)))
         w.w_classifiers)
  in
  let fast = Array.map Oclick_classifier.Compile.compile_packet trees in
  let k = Array.length trees and n = Array.length pkts in
  let tests = ref 0 in
  (* A frame walks the chain while it leaves by output 0. *)
  let interp () =
    for i = 0 to n - 1 do
      let p = pkts.(i) in
      let rec walk s =
        let r = Tree.classify_packed trees.(s) p in
        tests := !tests + Tree.packed_visited r;
        if Tree.packed_output r = 0 && s + 1 < k then walk (s + 1)
      in
      walk 0
    done
  in
  let compiled () =
    for i = 0 to n - 1 do
      let p = pkts.(i) in
      let rec walk s = if fast.(s) p = 0 && s + 1 < k then walk (s + 1) in
      walk 0
    done
  in
  let reps = 15 in
  let interp_ns, () = timed ~reps interp in
  let compiled_ns, () = timed ~reps compiled in
  let nf = float_of_int n in
  {
    interp_ns = interp_ns /. nf;
    compiled_ns = compiled_ns /. nf;
    tests = float_of_int !tests /. float_of_int reps /. nf;
  }

(* --- packet ---------------------------------------------------------------- *)

(* ns of IP header sums per packet, and headers per packet. *)
let checksum (w : Gen.t) (pkts : Packet.t array) =
  let sel = List.filter (fun i -> w.w_ip_headers.(i) > 0) (List.init (Array.length pkts) Fun.id) in
  let hdrs = Array.of_list (List.map (fun i -> pkts.(i)) sel) in
  let sink = ref 0 in
  let run () =
    Array.iter (fun p -> sink := !sink + Packet.ones_complement_sum p ~pos:14 ~len:20) hdrs
  in
  let ns, () = timed ~reps:15 run in
  ignore (Sys.opaque_identity !sink);
  let np = float_of_int (Array.length pkts) in
  (ns /. np, float_of_int (Array.length hdrs) /. np)

(* --- lpm ------------------------------------------------------------------- *)

type lpm = {
  build_ms : float;
  memory_mb : float;
  lookup_ns : float;
  lookup_batch_ns : float;
  touches : float;
  lookups_per_pkt : float;
  update_us : float;
  updates_per_mpkt : float;
}

(* The router's table picks its stage-1 stride the same way. *)
let stride_for n = if n >= 65536 then 24 else 16

let lpm (w : Gen.t) =
  let build () =
    let t = Lpm.create ~stride1:(stride_for (Array.length w.w_routes)) () in
    Array.iter
      (fun (addr, len, gw, port) -> ignore (Lpm.add t ~addr ~len ~gw ~port))
      w.w_routes;
    t
  in
  let build_ns, table = timed ~reps:3 build in
  List.iter
    (fun (_, (addr, len, gw, port)) -> ignore (Lpm.add table ~addr ~len ~gw ~port))
    w.w_initial;
  let dsts = Array.of_list (List.filter (fun d -> d >= 0) (Array.to_list w.w_dsts)) in
  let n = Array.length dsts in
  let touches = ref 0 and sink = ref 0 in
  let scalar () =
    for i = 0 to n - 1 do
      let r = Lpm.lookup table dsts.(i) in
      touches := !touches + Lpm.result_touches r;
      sink := !sink + Lpm.result_nh r
    done
  in
  let chunk = 32 in
  let src = Array.make chunk 0 and out = Array.make chunk 0 in
  let batched () =
    let i = ref 0 in
    while !i < n do
      let m = min chunk (n - !i) in
      Array.blit dsts !i src 0 m;
      sink := !sink + Lpm.lookup_batch table src out m;
      i := !i + m
    done
  in
  let reps = 15 in
  let scalar_ns, () = timed ~reps scalar in
  let batch_ns, () = timed ~reps batched in
  ignore (Sys.opaque_identity !sink);
  (* Each pass over the schedule leaves the table as it found it. *)
  let updates = List.filter_map Fun.id (Array.to_list w.w_updates) in
  let apply () =
    List.iter
      (fun (u : Gen.update) ->
        let addr, len, gw, port = u.up_route and old, olen = u.up_removed in
        ignore (Lpm.add table ~addr ~len ~gw ~port);
        ignore (Lpm.remove table ~addr:old ~len:olen))
      updates
  in
  let update_ns, () = timed ~reps:15 apply in
  let nu = List.length updates and np = float_of_int (Gen.npackets w) in
  {
    build_ms = build_ns /. 1e6;
    memory_mb = float_of_int (Lpm.memory_bytes table) /. 1048576.0;
    lookup_ns = scalar_ns /. np;
    lookup_batch_ns = batch_ns /. np;
    touches =
      (if n = 0 then 0.0
       else float_of_int !touches /. float_of_int reps /. float_of_int n);
    lookups_per_pkt = float_of_int n /. np;
    (* Per 1024 packets: one add+remove pair on churn. *)
    update_us = update_ns /. 1e3 /. (np /. float_of_int Gen.update_every);
    updates_per_mpkt = float_of_int nu *. 1e6 /. np;
  }

(* --- parallel ----------------------------------------------------------------- *)

type parallel = {
  partition_ms : float;
  cut_rings : int;
  call_overhead_us : float;
  spsc_handoff_ns : float;
}

let parallel (w : Gen.t) graph =
  let partition_ns, part =
    timed ~reps:3 (fun () ->
        ok "partition" (Oclick_parallel.Partition.compute ~domains:2 graph))
  in
  let runner =
    ok "runner" (Oclick_parallel.Runner.create ~devices:(devices w) ~domains:2 graph)
  in
  ignore (Oclick_parallel.Runner.run_until_idle runner);
  let call_ns, _ =
    timed ~reps:41 (fun () -> Oclick_parallel.Runner.run_until_idle runner)
  in
  (* One producer domain, the calling domain consumes. *)
  let items = 1 lsl 20 in
  let ring = Spsc.create ~dummy:0 1024 in
  let handoff () =
    let producer =
      Domain.spawn (fun () ->
          for i = 1 to items do
            while not (Spsc.push ring i) do
              Domain.cpu_relax ()
            done
          done)
    in
    let buf = Array.make 64 0 and got = ref 0 in
    while !got < items do
      let k = Spsc.pop_into ring buf 64 in
      if k = 0 then Domain.cpu_relax () else got := !got + k
    done;
    Domain.join producer
  in
  let handoff_ns, () = timed ~reps:3 handoff in
  {
    partition_ms = partition_ns /. 1e6;
    cut_rings = List.length part.Oclick_parallel.Partition.pt_cuts;
    call_overhead_us = call_ns /. 1e3;
    spsc_handoff_ns = handoff_ns /. float_of_int items;
  }

(* --- hw: the simulated testbed ------------------------------------------------- *)

(* Modeled CPU ns per offered packet in each mode. *)
let testbed (w : Gen.t) ~graph ~tool_graph mode =
  let module Testbed = Oclick_hw.Testbed in
  let platform, flows =
    if w.w_ndevs >= 8 then (Oclick_hw.Platform.p0, None)
    else (Oclick_hw.Platform.p1, Some [ { Testbed.fl_src = 0; fl_dst = 1 } ])
  in
  let graph = if mode = Rig.Toolchain then tool_graph else graph in
  let obs = if mode = Rig.Fused_batch_obs then Some (Oclick_obs.create ()) else None in
  let duration_ms = 20 in
  let r =
    ok "testbed"
      (Testbed.run ~duration_ms ~warmup_ms:10 ?flows ~batch:(Rig.batch_of mode)
         ~compile:(Rig.compile_of mode) ~fuse:(Rig.fuse_of mode) ?obs ~platform
         ~graph ~input_pps:200_000 ())
  in
  let offered = r.Testbed.r_offered_pps *. float_of_int duration_ms /. 1e3 in
  r.Testbed.r_model_ns /. offered
