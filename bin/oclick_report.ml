(* oclick-report: run a configuration in the simulated testbed and print
   the paper-style per-element cost breakdown — each element's packet
   counts and its share of modeled CPU time, sorted by cost with percent
   of total. With --passes, the breakdown is printed before and after
   each optimizer pass (click-xform, click-fastclassifier,
   click-devirtualize, applied cumulatively), which is exactly how the
   paper explains where each optimization saves its cycles.

   The testbed attaches one simulated NIC/host pair per device element,
   with the standard eth<i>/10.0.<i>.x addressing (the same assumption
   the bench figures make), so configurations built like the examples/
   IP routers measure end to end. *)

open Cmdliner
module Obs = Oclick_obs
module Json = Oclick_obs.Json
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Router = Oclick_graph.Router
module Partition = Oclick_parallel.Partition

let device_count router =
  let names = ref [] in
  List.iter
    (fun i ->
      match Router.class_of router i with
      | "PollDevice" | "FromDevice" | "ToDevice" -> (
          match Oclick_lang.Args.split (Router.config router i) with
          | d :: _ when not (List.mem d !names) -> names := d :: !names
          | _ -> ())
      | _ -> ())
    (Router.indices router);
  List.length !names

let () = Oclick_compile.register ()

(* Each pass is (label, graph, compile?, fuse?): the tool-chain passes
   rewrite the graph source-to-source; the "compiled" pass keeps the
   fully optimized graph and additionally runs the whole-graph datapath
   compiler at instantiation; the final "fused" pass adds the
   cross-element FDD fusion inside that compilation. Attribution is
   printable before and after every pass because the compiled and fused
   paths report the identical per-hop events. *)
let passes_of router =
  let xf = Oclick.Pipeline.transform router in
  let fc = Oclick.Pipeline.fastclassify xf in
  let dv = Oclick.Pipeline.devirtualize fc in
  [
    ("unoptimized", router, false, false);
    ("after click-xform", xf, false, false);
    ("after click-fastclassifier", fc, false, false);
    ("after click-devirtualize", dv, false, false);
    ("compiled", dv, true, false);
    ("fused", dv, true, true);
  ]

let measure ~platform ~batch ~domains ~input_pps ~duration_ms ~warmup_ms obs
    (graph, compile, fuse) =
  match
    Testbed.run ~duration_ms ~warmup_ms ~batch ~compile ~fuse ~obs ~domains
      ~platform ~graph ~input_pps ()
  with
  | Ok r -> r
  | Error e -> Tool_common.die "%s" e

(* The regions the FDD pass fused in the most recent compilation: what
   collapsed into each single decision-diagram dispatch, and how many
   packets entered each (scalar and vector bodies alike). Per-hop
   ledgers are replayed exactly even inside fused regions, so this is
   informational, not a caveat on the numbers. *)
let fused_regions_json ~fuse =
  let regions =
    if not fuse then []
    else
      match Oclick_compile.last_stats () with
      | Some st -> st.Oclick_compile.st_regions
      | None -> []
  in
  Json.List
    (List.map
       (fun (r : Oclick_fdd.region) ->
         Json.Obj
           [
             ("entry", Json.String r.Oclick_fdd.rg_entry);
             ( "members",
               Json.List
                 (List.map (fun m -> Json.String m) r.Oclick_fdd.rg_members) );
             ("nodes", Json.Int r.Oclick_fdd.rg_nodes);
             ("actions", Json.Int r.Oclick_fdd.rg_actions);
             ("packets", Json.Int r.Oclick_fdd.rg_packets);
           ])
       regions)

(* --- partition summary (--shards) -------------------------------------- *)

(* Ring depth a cut Queue would run with: inserted stages carry their
   capacity in the config; pre-existing Queues default to 1000. *)
let ring_depth graph idx =
  match Oclick_lang.Args.split (Router.config graph idx) with
  | c :: _ -> ( match int_of_string_opt c with Some n -> n | None -> 1000)
  | [] -> 1000

let shards_table ~domains router =
  match Partition.compute ~domains router with
  | Error e -> Tool_common.die "%s" e
  | Ok p ->
      let g = p.Partition.pt_graph in
      let counts = Partition.shard_counts p in
      Printf.printf "partition: %d domain%s, %d elements (%d inserted)\n"
        domains
        (if domains = 1 then "" else "s")
        (List.length (Router.indices g))
        (2 * List.length p.Partition.pt_inserted);
      Array.iteri
        (fun s n -> Printf.printf "  shard %d: %d elements\n" s n)
        counts;
      (match p.Partition.pt_cuts with
      | [] -> Printf.printf "cut queues: none\n"
      | cuts ->
          Printf.printf "cut queues (%d):\n" (List.length cuts);
          List.iter
            (fun (c : Partition.cut) ->
              Printf.printf "  %s: shard %d -> shard %d, ring %d%s\n"
                c.Partition.cut_queue_name c.cut_from_shard c.cut_to_shard
                (ring_depth g c.cut_queue)
                (if c.cut_inserted then ", inserted" else ""))
            cuts);
      print_newline ()

let shards_json ~domains router =
  match Partition.compute ~domains router with
  | Error e -> Tool_common.die "%s" e
  | Ok p ->
      let g = p.Partition.pt_graph in
      Json.Obj
        [
          ("domains", Json.Int domains);
          ("elements", Json.Int (List.length (Router.indices g)));
          ("inserted", Json.Int (2 * List.length p.Partition.pt_inserted));
          ( "shard_sizes",
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Int n) (Partition.shard_counts p)))
          );
          ( "cuts",
            Json.List
              (List.map
                 (fun (c : Partition.cut) ->
                   Json.Obj
                     [
                       ("queue", Json.String c.Partition.cut_queue_name);
                       ("from_shard", Json.Int c.cut_from_shard);
                       ("to_shard", Json.Int c.cut_to_shard);
                       ("ring", Json.Int (ring_depth g c.cut_queue));
                       ("inserted", Json.Bool c.cut_inserted);
                     ])
                 p.Partition.pt_cuts) );
        ]

(* The per-element columns must sum to the cost model's aggregate
   exactly: any difference means a transfer was double- or
   under-charged somewhere. Refuse to print numbers that disagree. *)
let aggregate_check obs (r : Testbed.result) =
  let total = Obs.total_sim_ns obs in
  let aggregate = int_of_float r.Testbed.r_model_ns in
  if abs (total - aggregate) > 1 then
    Tool_common.die
      "per-element attribution (%d ns) disagrees with the testbed aggregate \
       (%d ns)"
      total aggregate;
  aggregate

(* A run is degraded when the testbed had to intervene to finish it:
   quarantined/faulting elements or convergence warnings (stalled
   domains, drained rings). The ledger still balances — degraded means
   "completed with accounted losses", never "numbers are suspect". *)
let degraded (r : Testbed.result) =
  r.Testbed.r_warnings <> [] || r.Testbed.r_element_faults <> []

(* Route-table elements (anything exposing a "routes" stat): name plus
   stats, so table growth — routes, misses, trie memory — is observable
   like every other element stat. *)
let route_tables_json (r : Testbed.result) =
  Json.List
    (List.map
       (fun (name, stats) ->
         Json.Obj
           (("name", Json.String name)
           :: List.map (fun (k, v) -> (k, Json.Int v)) stats))
       r.Testbed.r_route_tables)

let pass_json ~label ~mhz ~fuse ?top obs (r : Testbed.result) =
  let aggregate = aggregate_check obs r in
  match Obs.Report.json ?top (Obs.Report.Sim mhz) obs with
  | Json.Obj kvs ->
      Json.Obj
        (("pass", Json.String label)
        :: ("aggregate_ns", Json.Int aggregate)
        :: ("forwarded_pps", Json.Float r.Testbed.r_forwarded_pps)
        :: ("ns_per_packet", Json.Float r.Testbed.r_total_ns)
        :: ("degraded", Json.Bool (degraded r))
        :: ( "warnings",
             Json.List
               (List.map (fun w -> Json.String w) r.Testbed.r_warnings) )
        :: ("route_tables", route_tables_json r)
        :: ("fused_regions", fused_regions_json ~fuse)
        :: kvs)
  | v -> v

let run json passes batch domains shards top input_pps duration_ms warmup_ms
    input =
  (match top with
  | Some n when n < 1 ->
      Tool_common.die "bad --top %d (must be at least 1)" n
  | _ -> ());
  if batch < 1 then Tool_common.die "bad --batch %d (must be at least 1)" batch;
  if domains < 1 then
    Tool_common.die "bad --domains %d (must be at least 1)" domains;
  if input_pps < 1 then
    Tool_common.die "bad --input-pps %d (must be at least 1)" input_pps;
  if duration_ms < 1 || warmup_ms < 0 then
    Tool_common.die "bad measurement window (%d ms after %d ms warmup)"
      duration_ms warmup_ms;
  let source = Tool_common.read_input input in
  let router = Tool_common.parse_router source in
  let ndev = device_count router in
  if ndev < 1 then
    Tool_common.die
      "configuration has no device elements (PollDevice/FromDevice/ToDevice)";
  let platform = { Platform.p0 with Platform.p_nports = ndev } in
  let mhz = float_of_int platform.Platform.p_cpu_mhz in
  let obs = Obs.create () in
  let variants =
    if passes then passes_of router
    else [ ("unoptimized", router, false, false) ]
  in
  let measure =
    measure ~platform ~batch ~domains ~input_pps ~duration_ms ~warmup_ms obs
  in
  if json then begin
    let reports =
      List.map
        (fun (label, graph, compile, fuse) ->
          pass_json ~label ~mhz ~fuse ?top obs (measure (graph, compile, fuse)))
        variants
    in
    let header =
      [
        ("tool", Json.String "oclick-report");
        ("cpu_mhz", Json.Float mhz);
        ("ports", Json.Int ndev);
        ("batch", Json.Int batch);
        ("domains", Json.Int domains);
        ("input_pps", Json.Int input_pps);
        ("duration_ms", Json.Int duration_ms);
      ]
    in
    let header =
      if shards then header @ [ ("partition", shards_json ~domains router) ]
      else header
    in
    let body =
      match reports with
      | [ Json.Obj kvs ] when not passes -> kvs
      | rs -> [ ("passes", Json.List rs) ]
    in
    print_endline (Json.to_string (Json.Obj (header @ body)))
  end
  else begin
    if shards then shards_table ~domains router;
    List.iter
      (fun (label, graph, compile, fuse) ->
        let r = measure (graph, compile, fuse) in
        let aggregate = aggregate_check obs r in
        Printf.printf
          "%s: %d ports, batch %d, %d pps offered — %.0f pps forwarded, \
           %.0f ns/packet\n"
          label ndev batch input_pps r.Testbed.r_forwarded_pps
          r.Testbed.r_total_ns;
        if degraded r then begin
          Printf.printf "degraded run:\n";
          List.iter (fun w -> Printf.printf "  %s\n" w) r.Testbed.r_warnings;
          List.iter
            (fun (name, n) ->
              Printf.printf "  element %s: %d fault%s contained\n" name n
                (if n = 1 then "" else "s"))
            r.Testbed.r_element_faults
        end;
        (if fuse then
           match Oclick_compile.last_stats () with
           | Some st when st.Oclick_compile.st_regions <> [] ->
               let rs = st.Oclick_compile.st_regions in
               Printf.printf "fused regions (%d):\n" (List.length rs);
               List.iter
                 (fun (rg : Oclick_fdd.region) ->
                   Printf.printf "  %s + [%s]: %d nodes, %d actions, %d packets\n"
                     rg.Oclick_fdd.rg_entry
                     (String.concat ", " rg.Oclick_fdd.rg_members)
                     rg.Oclick_fdd.rg_nodes rg.Oclick_fdd.rg_actions
                     rg.Oclick_fdd.rg_packets)
                 rs
           | _ -> ());
        print_string (Obs.Report.table ?top (Obs.Report.Sim mhz) obs);
        Printf.printf "aggregate (cost model): %d ns — matches per-element \
                       total\n\n"
          aggregate)
      variants
  end

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the breakdown as JSON on standard output.")

let passes_arg =
  Arg.(
    value & flag
    & info [ "passes" ]
        ~doc:
          "Report before and after each optimizer pass: unoptimized, then \
           cumulatively click-xform, click-fastclassifier, \
           click-devirtualize, the whole-graph compiled datapath, and \
           finally cross-element FDD fusion (with its fused regions).")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:"Transfer batch size handed to the driver (default 1, scalar).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Simulate an $(docv)-CPU router: the graph is partitioned at \
           Queue boundaries exactly as the multi-domain runner partitions \
           it, and each shard's scheduler advances its own simulated \
           clock. CPU utilization then reports the busiest simulated \
           CPU.")

let shards_arg =
  Arg.(
    value & flag
    & info [ "shards" ]
        ~doc:
          "Print the partition before measuring: elements per shard, and \
           each cut Queue with its producer and consumer shards and ring \
           depth. With $(b,--json), adds a $(b,partition) object to the \
           report.")

let top_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "top" ] ~docv:"N"
        ~doc:
          "Keep only the $(docv) most expensive elements in each \
           breakdown; the rest collapse into one aggregate \
           $(b,(other: n)) row, so totals (and the JSON cost-sum \
           invariant) are unchanged.")

let input_pps_arg =
  Arg.(
    value & opt int 200_000
    & info [ "input-pps" ] ~docv:"PPS"
        ~doc:"Offered load, aggregate over all flows.")

let duration_arg =
  Arg.(
    value & opt int 40
    & info [ "duration-ms" ] ~docv:"MS" ~doc:"Measurement window length.")

let warmup_arg =
  Arg.(
    value & opt int 20
    & info [ "warmup-ms" ] ~docv:"MS"
        ~doc:"Warmup before the window (ARP resolves here).")

let () =
  Tool_common.run_tool "oclick-report"
    "Per-element cost breakdown of a configuration in the simulated testbed."
    Term.(
      const run $ json_arg $ passes_arg $ batch_arg $ domains_arg $ shards_arg
      $ top_arg $ input_pps_arg $ duration_arg $ warmup_arg
      $ Tool_common.input_arg)
