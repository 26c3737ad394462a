(* Profile-guided autotuning: oclick-tune's search against the
   single-knob baseline sweep, and measured-cost partition placement
   against static LPT.

   Part one runs the tuner end to end on two config x workload cells
   (the two-interface IP router under uniform load, and a cascaded
   classifier under bursty load). Each cell first profiles the graph
   single-domain to get measured per-element costs, prunes the mode
   axis by region shares exactly as oclick-tune does, then evaluates
   every single-knob default (the all-defaults config plus each
   one-flag-at-a-time variation) and runs the seeded search with those
   defaults as extra starts — so the tuned result is ≥ the best
   default by construction, and the JSON records by how much.

   Part two is the obs→placement feedback loop in isolation, on a
   config built to fool element counting: four source chains with
   identical element counts, one of which hides a 64-pattern
   classifier whose fall-through traffic walks every test. Static LPT
   (weight 1 per element) cannot see the skew; LPT over profiled
   costs puts the hot chain on its own shard. The JSON records the
   busiest-shard measured cost under both placements (the @tune-smoke
   bar: measured < static) and the end-to-end simulated CPU
   utilization of both at the same offered load.

   Everything runs in the simulated testbed, so every number here is
   deterministic. *)

module Tune = Oclick_tune
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Host = Oclick_hw.Host
module Partition = Oclick_parallel.Partition
module Json = Oclick_obs.Json

let seed = 1

let fail fmt = Printf.ksprintf failwith fmt

let ok label = function Ok v -> v | Error e -> fail "tune bench: %s: %s" label e

(* --- part one: tuned vs single-knob defaults ---------------------------- *)

(* A six-stage classifier cascade eth0→eth1 (each stage re-matching a
   header word of the flow, fall-through to Discard) plus a plain
   return path, so both directions of the two-port testbed flow
   forward. The cascade is one multi-element push region — the case
   where the mode axis (compile/fuse) has something to collapse. *)
let cascade_stages = 6

let cascade_graph =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let patterns = [| "12/0800"; "14/45" |] in
  add "pd0 :: PollDevice(eth0);\n";
  add "outq :: Queue(200);\n";
  add "td0 :: ToDevice(eth1);\n";
  for i = 0 to cascade_stages - 1 do
    add "k%d :: Classifier(%s, -);\n" i patterns.(i mod Array.length patterns)
  done;
  add "pd0 -> k0;\n";
  for i = 0 to cascade_stages - 2 do
    add "k%d [0] -> k%d;\n" i (i + 1);
    add "k%d [1] -> Discard;\n" i
  done;
  add "k%d [0] -> outq -> td0;\n" (cascade_stages - 1);
  add "k%d [1] -> Discard;\n" (cascade_stages - 1);
  add "pd1 :: PollDevice(eth1) -> rq :: Queue(200) -> td1 :: ToDevice(eth0);\n";
  Oclick.Ip_router.graph (Buffer.contents buf)

type cell = {
  cl_name : string;
  cl_platform : Platform.t;
  cl_graph : Oclick_graph.Router.t;
  cl_workload : Host.workload;
  cl_workload_name : string;
  cl_input_pps : int;
}

let cells =
  [
    {
      cl_name = "ip2/uniform";
      cl_platform = Platform.p2;
      cl_graph = Common.base_graph 2;
      cl_workload = Host.Uniform;
      cl_workload_name = "uniform";
      cl_input_pps = 700_000;
    };
    {
      cl_name = "cascade6/burst";
      cl_platform = Platform.p2;
      cl_graph = cascade_graph;
      cl_workload = Host.Burst (64, 1.5);
      cl_workload_name = "burst:64:1.5";
      cl_input_pps = 600_000;
    };
  ]

type cell_result = {
  cr_cell : cell;
  cr_budget : int;
  cr_tuned : Tune.tuned;
  cr_best_default : Tune.config * Tune.score;
  cr_defaults : (Tune.config * Tune.score) list;
  cr_fusion_worthwhile : bool;
}

let run_cell ~budget ~duration_ms ~warmup_ms ~drain_ms cell =
  (* Profile single-domain, prune the mode axis by measured region
     shares — the same pre-pass oclick-tune runs. *)
  let weights =
    ok (cell.cl_name ^ "/profile")
      (Tune.profile ~duration_ms ~warmup_ms ~drain_ms
         ~workload:cell.cl_workload ~platform:cell.cl_platform
         ~graph:cell.cl_graph ~input_pps:cell.cl_input_pps ())
  in
  let shares =
    ok (cell.cl_name ^ "/regions") (Tune.region_shares ~weights cell.cl_graph)
  in
  let worthwhile = Tune.fusion_worthwhile shares in
  let space =
    if worthwhile then Tune.default_space
    else { Tune.default_space with Tune.s_modes = [ Tune.Interpreted ] }
  in
  let objective =
    Tune.objective ~duration_ms ~warmup_ms ~drain_ms
      ~workload:cell.cl_workload ~weights ~platform:cell.cl_platform
      ~graph:cell.cl_graph ~input_pps:cell.cl_input_pps ()
  in
  let defaults =
    List.map
      (fun c -> (c, ok (cell.cl_name ^ "/default") (Tune.eval objective c)))
      (Tune.single_knob_defaults space)
  in
  let best_default =
    match defaults with
    | [] -> fail "tune bench: %s: no single-knob defaults" cell.cl_name
    | first :: rest ->
        List.fold_left
          (fun (bc, bs) (c, s) ->
            if Tune.better s bs then (c, s) else (bc, bs))
          first rest
  in
  let tuned =
    ok (cell.cl_name ^ "/search")
      (Tune.search ~seed ~budget
         ~extra_starts:(List.map fst defaults)
         objective space)
  in
  {
    cr_cell = cell;
    cr_budget = budget;
    cr_tuned = tuned;
    cr_best_default = best_default;
    cr_defaults = defaults;
    cr_fusion_worthwhile = worthwhile;
  }

let score_json (s : Tune.score) =
  [
    ("pps", Json.Float s.Tune.sc_pps);
    ("ns_per_pkt", Json.Float s.Tune.sc_ns);
  ]

let cell_json r =
  let t = r.cr_tuned in
  let bd_c, bd_s = r.cr_best_default in
  Json.Obj
    [
      ("name", Json.String r.cr_cell.cl_name);
      ("platform", Json.String r.cr_cell.cl_platform.Platform.p_name);
      ("workload", Json.String r.cr_cell.cl_workload_name);
      ("input_pps", Json.Int r.cr_cell.cl_input_pps);
      ("seed", Json.Int seed);
      ("budget", Json.Int r.cr_budget);
      ("evals", Json.Int t.Tune.t_evals);
      ("points", Json.Int t.Tune.t_points);
      ("exhaustive", Json.Bool t.Tune.t_exhaustive);
      ("fusion_worthwhile", Json.Bool r.cr_fusion_worthwhile);
      ( "tuned",
        Json.Obj
          (("config", Json.String (Tune.describe t.Tune.t_config))
           :: score_json t.Tune.t_score
          @ [ ("command", Json.String (Tune.command_line t.Tune.t_config)) ])
      );
      ( "best_default",
        Json.Obj
          (("config", Json.String (Tune.describe bd_c)) :: score_json bd_s)
      );
      ( "defaults",
        Json.List
          (List.map
             (fun (c, s) ->
               Json.Obj
                 (("config", Json.String (Tune.describe c))
                 :: score_json s))
             r.cr_defaults) );
      ( "improvement",
        Json.Float
          (if bd_s.Tune.sc_pps > 0.0 then
             t.Tune.t_score.Tune.sc_pps /. bd_s.Tune.sc_pps
           else 1.0) );
    ]

(* --- part two: measured-cost placement vs static LPT -------------------- *)

(* Four source chains with identical element counts — PollDevice,
   Classifier, shared Discard, Queue, ToDevice — so static LPT sees
   four interchangeable regions. Chain 0's classifier carries [junk]
   never-matching patterns at one header word; its fall-through
   traffic walks a test per pattern, so the chain costs several times
   its siblings in measured cycles while counting the same. All junk
   outputs collapse onto one Discard per chain to keep the counts
   aligned. *)
let skew_ports = 8
let skew_domains = 4
let skew_platform = { Platform.p2 with Platform.p_nports = skew_ports }

let skew_graph =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let chain i ~junk =
    add "pd%d :: PollDevice(eth%d);\n" i i;
    add "dd%d :: Discard;\n" i;
    let pats =
      String.concat ", "
        (List.init junk (fun j -> Printf.sprintf "12/99%02x" j) @ [ "-" ])
    in
    add "k%d :: Classifier(%s);\n" i pats;
    add "q%d :: Queue(200);\n" i;
    add "td%d :: ToDevice(eth%d);\n" i (i + skew_ports / 2);
    add "pd%d -> k%d;\n" i i;
    for j = 0 to junk - 1 do
      add "k%d [%d] -> dd%d;\n" i j i
    done;
    add "k%d [%d] -> q%d -> td%d;\n" i junk i i
  in
  chain 0 ~junk:64;
  for i = 1 to (skew_ports / 2) - 1 do
    chain i ~junk:4
  done;
  Oclick.Ip_router.graph (Buffer.contents buf)

type placement_result = {
  pl_weights : int array;
  pl_static_busiest : int;
  pl_measured_busiest : int;
  pl_static_util : float;
  pl_measured_util : float;
  pl_regions : int;
}

let busiest a = Array.fold_left max 0 a

let run_placement ~duration_ms ~warmup_ms ~drain_ms ~input_pps =
  let graph = skew_graph in
  let weights =
    ok "placement/profile"
      (Tune.profile ~duration_ms ~warmup_ms ~drain_ms ~platform:skew_platform
         ~graph ~input_pps ())
  in
  let static = ok "placement/static" (Partition.compute ~domains:skew_domains graph) in
  let measured =
    ok "placement/measured"
      (Partition.compute ~weights ~domains:skew_domains graph)
  in
  let regions = ok "placement/regions" (Partition.regions graph) in
  let util partition_weights =
    let r =
      ok "placement/testbed"
        (Testbed.run ~duration_ms ~warmup_ms ~drain_ms
           ~domains:skew_domains ?partition_weights ~platform:skew_platform
           ~graph ~input_pps ())
    in
    r.Testbed.r_cpu_utilization
  in
  {
    pl_weights = weights;
    pl_static_busiest = busiest (Partition.shard_weights ~weights static);
    pl_measured_busiest = busiest (Partition.shard_weights ~weights measured);
    pl_static_util = util None;
    pl_measured_util = util (Some weights);
    pl_regions = List.length regions;
  }

let placement_json ~input_pps p =
  Json.Obj
    [
      ("graph", Json.String "skew4");
      ("platform", Json.String skew_platform.Platform.p_name);
      ("ports", Json.Int skew_ports);
      ("domains", Json.Int skew_domains);
      ("input_pps", Json.Int input_pps);
      ("regions", Json.Int p.pl_regions);
      ("static_busiest_cost", Json.Int p.pl_static_busiest);
      ("measured_busiest_cost", Json.Int p.pl_measured_busiest);
      ( "reduction",
        Json.Float
          (1.0
          -. float_of_int p.pl_measured_busiest
             /. float_of_int (max 1 p.pl_static_busiest)) );
      ("static_cpu_utilization", Json.Float p.pl_static_util);
      ("measured_cpu_utilization", Json.Float p.pl_measured_util);
    ]

(* --- the section -------------------------------------------------------- *)

let run () =
  Common.section
    "tune: profile-guided autotuning and measured-cost placement";
  let budget = if !Common.smoke then 24 else 48 in
  let duration_ms, warmup_ms, drain_ms =
    if !Common.smoke then (8, 4, 4) else (30, 15, 10)
  in
  Printf.printf
    "seeded search (seed %d, budget %d) vs the single-knob default sweep\n\n"
    seed budget;
  let results =
    List.map (run_cell ~budget ~duration_ms ~warmup_ms ~drain_ms) cells
  in
  Printf.printf "%-16s %-44s %12s %10s\n" "cell" "config" "fwd pps" "ns/pkt";
  List.iter
    (fun r ->
      let bd_c, bd_s = r.cr_best_default in
      let t = r.cr_tuned in
      Printf.printf "%-16s %-44s %12.0f %10.0f\n" r.cr_cell.cl_name
        ("default: " ^ Tune.describe bd_c)
        bd_s.Tune.sc_pps bd_s.Tune.sc_ns;
      Printf.printf "%-16s %-44s %12.0f %10.0f\n" ""
        ("tuned:   " ^ Tune.describe t.Tune.t_config)
        t.Tune.t_score.Tune.sc_pps t.Tune.t_score.Tune.sc_ns;
      Printf.printf "%-16s %d/%d evaluations over %d points%s\n\n" ""
        t.Tune.t_evals t.Tune.t_budget t.Tune.t_points
        (if t.Tune.t_exhaustive then " (exhaustive)" else ""))
    results;
  let placement_pps = 400_000 in
  let placement =
    run_placement ~duration_ms ~warmup_ms ~drain_ms ~input_pps:placement_pps
  in
  Printf.printf
    "placement (skew config, %d regions, %d domains): busiest shard cost \
     %d static -> %d measured (%.0f%% less); cpu utilization %.2f -> %.2f\n"
    placement.pl_regions skew_domains placement.pl_static_busiest
    placement.pl_measured_busiest
    (100.0
    *. (1.0
       -. float_of_int placement.pl_measured_busiest
          /. float_of_int (max 1 placement.pl_static_busiest)))
    placement.pl_static_util placement.pl_measured_util;
  Common.write_json ~section:"tune"
    (Json.Obj
       [
         ("section", Json.String "tune");
         ("smoke", Json.Bool !Common.smoke);
         ("seed", Json.Int seed);
         ("budget", Json.Int budget);
         ("cells", Json.List (List.map cell_json results));
         ("placement", placement_json ~input_pps:placement_pps placement);
       ])
