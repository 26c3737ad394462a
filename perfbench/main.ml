(* The layered oclick benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload from the seed, measures set-up and the paper's
   tool chain, then drives the same frame stream through every datapath
   mode for S/7 seconds each, checking every frame and drop against the
   oracle. With --trace 0 the last line of output carries the end-to-end
   metrics; with --trace 1 it carries the per-layer metrics of a run
   that also records spans and probes each layer. Spans and the full
   result go to perfbench/out/. *)

module Json = Oclick_obs.Json
module Packet = Oclick_packet.Packet

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0.0
let trace = ref (-1)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME iprouter|cascade|churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds, shared by the modes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let kind =
  match Gen.kind_of_string !workload with
  | Some k -> k
  | None -> die "unknown workload %S" !workload

let () =
  if !seed < 0 then die "--seed must be given, >= 0";
  if !seconds <= 0.0 then die "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  Oclick_elements.register_all ();
  Oclick_compile.register ()

let traced = !trace = 1
let spans = Spans.create ~enabled:traced
let span name f = Spans.with_span spans name f
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let median_i a = Probes.median_f (Array.map float_of_int a)

(* The tail of a run's burst times: the median of the 99th percentiles
   of five consecutive slices, so one stall on the host moves one slice
   and not the result. Each slice holds hundreds of bursts. *)
let sliced_p99 a =
  let k = 5 in
  let len = Array.length a / k in
  Probes.median_f (Array.init k (fun i -> percentile (Array.sub a (i * len) len) 0.99))

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun k ->
            float_of_int k /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* --- generation and set-up ----------------------------------------------- *)

let w = span "gen" (fun () -> Gen.generate kind ~seed:!seed)
let templates = Array.map Packet.of_string w.w_frames

(* Config text to the first forwarded frame, in fused_batch. *)
let setup_once () =
  span "setup" (fun () ->
      let graph = span "setup/parse" (fun () -> Probes.graph_of w.w_config) in
      let rig = span "setup/instantiate" (fun () -> Rig.create ~w ~graph Rig.Fused_batch) in
      span "setup/prime" (fun () -> Rig.prime rig w);
      span "setup/first_forward" (fun () -> Rig.first_forward rig w templates))

(* The paper's "All" chain, from config text: parse, xform,
   fastclassifier, devirtualize. *)
let toolchain_once () =
  span "toolchain" (fun () ->
      Oclick.Pipeline.optimize Oclick.Pipeline.All (Probes.graph_of w.w_config))

let tool_graph = toolchain_once ()
let graph = Probes.graph_of w.w_config

(* --- the modes ------------------------------------------------------------ *)

type run = { mode : Rig.mode; st : Rig.stats; pool : Packet.Pool.stats option; gc : float * float }

(* Set-up and tool-chain timings are sampled at even intervals through
   the run, like the windows. A sample starts from a collected heap and
   repeats the call for at least 0.2 s, so that it spans the host's
   changes of pace as a window does; it reports the mean per call. Set-ups
   are collected after each call (untimed), so the routers they build do
   not pile up. *)
let samples = 5

(* Every mode's rig is live at once and the modes take turns, one window
   each, rotating which goes first: a slow spell on the host lands on
   all modes alike instead of on whichever ran through it. *)
let runs, setup_s, toolchain_s =
  let meters =
    Array.of_list
      (List.map
         (fun mode ->
           let graph = if mode = Rig.Toolchain then tool_graph else graph in
           let m =
             span (Rig.mode_name mode ^ "/setup") (fun () ->
                 let rig = Rig.create ~w ~graph mode in
                 Rig.prime rig w;
                 Rig.meter rig w templates ~spans
                   ~alternate:(traced && mode = Rig.Fused_batch))
           in
           (* Instantiation leaves the parsed route table behind; collect
              it before the next router is built. *)
           Gc.compact ();
           m)
         Rig.modes)
  in
  let n = Array.length meters in
  let setup_ns = ref [] and tool_ns = ref [] and taken = ref 0 in
  let sample () =
    let time ?(between = ignore) f =
      Gc.full_major ();
      let t0 = Spans.now_ns () in
      let spent = ref 0 and calls = ref 0 in
      while !calls = 0 || Spans.now_ns () - t0 < 200_000_000 do
        let c0 = Spans.now_ns () in
        ignore (Sys.opaque_identity (f ()));
        spent := !spent + (Spans.now_ns () - c0);
        incr calls;
        between ()
      done;
      float_of_int !spent /. float_of_int !calls
    in
    setup_ns := time ~between:Gc.full_major setup_once :: !setup_ns;
    tool_ns := time toolchain_once :: !tool_ns;
    Gc.full_major ();
    incr taken
  in
  let t0 = Spans.now_ns () in
  let period = int_of_float (!seconds *. 1e9) / samples in
  (* Time spent sampling extends the run, so the windows keep --seconds. *)
  let deadline = ref (t0 + (samples * period)) in
  let round = ref 0 in
  while Spans.now_ns () < !deadline || !round < 3 do
    for i = 0 to n - 1 do
      Rig.window meters.((!round + i) mod n)
    done;
    incr round;
    if !taken < samples && Spans.now_ns () >= t0 + (!taken * period) + (period / 2) then begin
      let s0 = Spans.now_ns () in
      sample ();
      deadline := !deadline + (Spans.now_ns () - s0)
    end
  done;
  while !taken < samples do
    sample ()
  done;
  let median l = Probes.median_f (Array.of_list l) /. 1e9 in
  ( Array.to_list
      (Array.map
         (fun (m : Rig.meter) ->
           let pool = Option.map Packet.Pool.stats m.rig.Rig.pool in
           let gc =
             if traced && m.rig.Rig.mode = Rig.Fused_batch then
               span "fused_batch/solo_gc" (fun () -> Rig.solo_gc m ~bursts:2048)
             else (0.0, 0.0)
           in
           { mode = m.rig.Rig.mode; st = m.st; pool; gc })
         meters),
    median !setup_ns,
    median !tool_ns )

let find mode = List.find (fun r -> r.mode = mode) runs
let ps_per_pkt r = median_i (Rig.Ints.to_array r.st.Rig.windows)
let fb = find Rig.Fused_batch
let per_pkt ns r = float_of_int ns /. float_of_int r.st.Rig.packets
let attempted = List.fold_left (fun a r -> a + r.st.Rig.checked) 0 runs
let failed = List.fold_left (fun a r -> a + r.st.Rig.failed) 0 runs

(* --- results ----------------------------------------------------------------- *)

let metric name unit value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let end_to_end () =
  let bursts = Array.map float_of_int (Rig.Ints.to_array fb.st.Rig.bursts) in
  [
    metric "setup_s" "s" setup_s;
    metric "toolchain_s" "s" toolchain_s;
  ]
  @ List.map (fun r -> metric ("mpps." ^ Rig.mode_name r.mode) "Mpps" (1e6 /. ps_per_pkt r)) runs
  @ [
      metric "burst_us.p50" "us" (percentile bursts 0.50 /. 1e3);
      metric "minor_words_per_pkt" "count" (fb.st.Rig.minor_words /. float_of_int fb.st.Rig.packets);
      metric "peak_rss_mb" "MB" (vm_hwm_mb ());
    ]

let per_layer () =
  Gc.full_major ();
  let setup_graph = span "probe/parse" (fun () -> Probes.graph_of w.w_config) in
  let parse_ns, _ = Probes.timed ~reps:3 (fun () -> span "probe/parse" (fun () -> Probes.parse w.w_config)) in
  (* The tool chain stage by stage, in the order "All" runs it. *)
  let xf_ns, xf =
    Probes.timed ~reps:3 (fun () ->
        let g = Oclick_graph.Router.copy setup_graph in
        span "probe/xform" (fun () -> Oclick.Pipeline.transform g))
  in
  let fc_ns, fc = Probes.timed ~reps:3 (fun () -> span "probe/fastclassifier" (fun () -> Oclick.Pipeline.fastclassify xf)) in
  let dv_ns, _ = Probes.timed ~reps:3 (fun () -> span "probe/devirtualize" (fun () -> Oclick.Pipeline.devirtualize fc)) in
  let inst_ns, _ = Probes.timed ~reps:3 (fun () -> span "probe/instantiate" (fun () -> Probes.instantiate w setup_graph)) in
  let install fuse =
    let d = Probes.instantiate w setup_graph in
    let t0 = Spans.now_ns () in
    let st = span (if fuse then "probe/fdd_install" else "probe/compile_install") (fun () ->
      Probes.ok "install" (Oclick_compile.install ~fuse d)) in
    (float_of_int (Spans.now_ns () - t0), st)
  in
  let c_ns, c_st = install false in
  let f_ns, f_st = install true in
  Gc.full_major ();
  let cls = span "probe/classifier" (fun () -> Probes.classifier w templates) in
  let ck_ns, ck_per_pkt = span "probe/checksum" (fun () -> Probes.checksum w templates) in
  let lpm = span "probe/lpm" (fun () -> Probes.lpm w) in
  Gc.full_major ();
  let par = span "probe/parallel" (fun () -> Probes.parallel w setup_graph) in
  Gc.full_major ();
  let sim = List.map (fun mode ->
    (mode, span "probe/testbed" (fun () -> Probes.testbed w ~graph:setup_graph ~tool_graph mode)))
    Rig.modes in
  (* Pairs of modes the simulator and the wall clock order differently;
     a simulated tie against a measured difference counts. *)
  let wall mode = ps_per_pkt (find mode) and simv mode = List.assoc mode sim in
  let rank = ref 0 in
  List.iteri (fun i a -> List.iteri (fun j b ->
    if i < j && compare (wall a) (wall b) <> compare (simv a) (simv b) then incr rank)
    Rig.modes) Rig.modes;
  let run_ns r = per_pkt r.st.Rig.run_ns r in
  let bursts = Array.map float_of_int (Rig.Ints.to_array fb.st.Rig.bursts) in
  let residual =
    run_ns fb -. cls.Probes.compiled_ns -. lpm.Probes.lookup_batch_ns -. ck_ns in
  let traced_fb = Rig.Ints.to_array fb.st.Rig.traced_windows in
  let heap_frac = match fb.pool with
    | Some p -> float_of_int p.Packet.Pool.st_heap_bufs /. float_of_int (max 1 (p.Packet.Pool.st_allocs + p.Packet.Pool.st_reuses))
    | None -> 0.0 in
  let nodes = List.fold_left (fun a r -> a + r.Oclick_fdd.rg_nodes) 0 f_st.Oclick_compile.st_regions in
  [
    metric "lang.parse_ms" "ms" (parse_ns /. 1e6);
    metric "optim.xform_ms" "ms" (xf_ns /. 1e6);
    metric "optim.fastclassifier_ms" "ms" (fc_ns /. 1e6);
    metric "optim.devirtualize_ms" "ms" (dv_ns /. 1e6);
    metric "runtime.instantiate_ms" "ms" (inst_ns /. 1e6);
  ]
  @ List.map (fun r -> metric ("runtime.run_ns_per_pkt." ^ Rig.mode_name r.mode) "ns" (run_ns r)) runs
  @ [
    metric "runtime.residual_ns_per_pkt" "ns" residual;
    metric "burst_us.p99" "us" (sliced_p99 bursts /. 1e3);
    metric "runtime.update_ns_per_pkt" "ns" (per_pkt fb.st.Rig.update_ns fb);
    metric "packet.inject_ns_per_pkt" "ns" (per_pkt fb.st.Rig.inject_ns fb);
    metric "packet.drain_ns_per_pkt" "ns" (per_pkt fb.st.Rig.drain_ns fb);
    metric "packet.checksum_ns" "ns" ck_ns;
    metric "packet.checksums_per_pkt" "count" ck_per_pkt;
    metric "packet.heap_fallback_frac" "fraction" heap_frac;
    metric "classifier.interp_ns_per_pkt" "ns" cls.Probes.interp_ns;
    metric "classifier.compiled_ns_per_pkt" "ns" cls.Probes.compiled_ns;
    metric "classifier.tests_per_pkt" "count" cls.Probes.tests;
    metric "compile.install_ms" "ms" (c_ns /. 1e6);
    metric "compile.fallbacks" "count" (float_of_int c_st.Oclick_compile.st_fallbacks);
    metric "fdd.install_ms" "ms" (f_ns /. 1e6);
    metric "fdd.regions" "count" (float_of_int (List.length f_st.Oclick_compile.st_regions));
    metric "fdd.nodes" "count" (float_of_int nodes);
    metric "lpm.lookup_ns" "ns" lpm.Probes.lookup_ns;
    metric "lpm.lookup_batch_ns" "ns" lpm.Probes.lookup_batch_ns;
    metric "lpm.touches_per_lookup" "count" lpm.Probes.touches;
    metric "lpm.lookups_per_pkt" "count" lpm.Probes.lookups_per_pkt;
    metric "lpm.update_us" "us" lpm.Probes.update_us;
    metric "lpm.updates_per_mpkt" "count" lpm.Probes.updates_per_mpkt;
    metric "lpm.build_ms" "ms" lpm.Probes.build_ms;
    metric "lpm.memory_mb" "MB" lpm.Probes.memory_mb;
    metric "obs.overhead_ns_per_pkt" "ns" ((ps_per_pkt (find Rig.Fused_batch_obs) -. ps_per_pkt fb) /. 1e3);
    metric "parallel.partition_ms" "ms" par.Probes.partition_ms;
    metric "parallel.cut_rings" "count" (float_of_int par.Probes.cut_rings);
    metric "parallel.call_overhead_us" "us" par.Probes.call_overhead_us;
    metric "runtime.spsc_handoff_ns" "ns" par.Probes.spsc_handoff_ns;
    metric "gc.minor_collections_per_mpkt" "count" (fst fb.gc);
    metric "gc.major_collections_per_mpkt" "count" (snd fb.gc);
  ]
  @ List.map (fun (m, v) -> metric ("hw.sim_ns_per_pkt." ^ Rig.mode_name m) "ns" v) sim
  @ [
    metric "hw.rank_disagreements" "count" (float_of_int !rank);
    metric "trace.overhead_frac" "fraction"
      (if traced_fb = [||] then 0.0 else 1.0 -. (ps_per_pkt fb /. median_i traced_fb));
    metric "check.fail_frac" "fraction" (float_of_int failed /. float_of_int attempted);
  ]

let fingerprint () =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Json.Obj
    [
      ("cpu", Json.String (env "PERFBENCH_CPU"));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("flambda", Json.String (env "PERFBENCH_FLAMBDA"));
      ("commit", Json.String (env "PERFBENCH_COMMIT"));
      ("workload", Json.String !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Float !seconds);
      ("trace", Json.Int !trace);
      ("lpm_stride", Json.Int (Probes.stride_for (Array.length w.w_routes)));
      ("burst", Json.Int Gen.burst);
      ("burst_samples", Json.Int (Rig.Ints.to_array fb.st.Rig.bursts |> Array.length));
      ( "burst_us",
        let a = Array.map float_of_int (Rig.Ints.to_array fb.st.Rig.bursts) in
        Json.Obj
          (List.map
             (fun q -> (Printf.sprintf "p%g" (100.0 *. q), Json.Float (percentile a q /. 1e3)))
             [ 0.5; 0.9; 0.95; 0.98; 0.99; 0.999 ]) );
      ("windows_per_mode", Json.Int (Rig.Ints.to_array fb.st.Rig.windows |> Array.length));
    ]

let write_file path v =
  let oc = open_out path in
  output_string oc (Json.to_string v);
  output_char oc '\n';
  close_out oc

let () =
  let metrics = if traced then per_layer () else end_to_end () in
  let fp = fingerprint () in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  let out = "perfbench/out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let base = Printf.sprintf "%s/%s.seed%d.trace%d" out !workload !seed !trace in
  write_file (base ^ ".json") (Json.Obj [ ("fingerprint", fp); ("result", result) ]);
  if traced then write_file (base ^ ".spans.json") (Spans.to_json spans);
  print_endline (Json.to_string (Json.Obj [ ("fingerprint", fp) ]));
  print_endline (Json.to_string result)
