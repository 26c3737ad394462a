(* Per-element attribution of the forwarding path: where the cycles go,
   element by element, and how the answer shifts (a) between the scalar
   and the batched transfer path and (b) as the optimizer passes rewrite
   the graph. This is the observability layer driving the same question
   the paper's evaluation answers with per-element breakdowns: not just
   *how much* faster, but *which element* got cheaper.

   Emits BENCH_obs.json under --json: one record per scenario with the
   aggregate and the per-element rows, so the attribution shift is
   machine-checkable. *)

module Obs = Oclick_obs
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Json = Oclick_obs.Json

let mhz = float_of_int Platform.p0.Platform.p_cpu_mhz

type scenario = {
  sc_name : string;
  sc_graph : Oclick_graph.Router.t;
  sc_batch : int;
}

let scenarios () =
  let base = Common.base_graph 8 in
  let opt =
    Oclick.Pipeline.devirtualize
      (Oclick.Pipeline.fastclassify (Common.base_graph 8))
  in
  [
    { sc_name = "ip-router scalar"; sc_graph = base; sc_batch = 1 };
    { sc_name = "ip-router batch-32"; sc_graph = base; sc_batch = 32 };
    {
      sc_name = "ip-router fastclassifier+devirtualize";
      sc_graph = opt;
      sc_batch = 1;
    };
    {
      sc_name = "ip-router fastclassifier+devirtualize batch-32";
      sc_graph = opt;
      sc_batch = 32;
    };
  ]

let measure sc =
  let duration_ms, warmup_ms = if !Common.smoke then (8, 4) else (60, 30) in
  let obs = Obs.create () in
  let r =
    match
      Testbed.run ~duration_ms ~warmup_ms ~batch:sc.sc_batch ~obs
        ~platform:Platform.p0 ~graph:sc.sc_graph ~input_pps:200_000 ()
    with
    | Ok r -> r
    | Error e -> failwith ("obs bench: " ^ e)
  in
  let total = Obs.total_sim_ns obs in
  let aggregate = int_of_float r.Testbed.r_model_ns in
  if abs (total - aggregate) > 1 then
    failwith
      (Printf.sprintf
         "obs bench: %s: per-element total %d ns disagrees with aggregate %d \
          ns"
         sc.sc_name total aggregate);
  (obs, r)

let element_json (s : Obs.stats) =
  Json.Obj
    [
      ("name", Json.String s.Obs.s_name);
      ("class", Json.String s.Obs.s_class);
      ("in", Json.Int s.Obs.s_in);
      ("out", Json.Int s.Obs.s_out);
      ("drops", Json.Int s.Obs.s_drops);
      ("batches", Json.Int s.Obs.s_batches);
      ("sim_ns", Json.Int s.Obs.s_sim_ns);
    ]

let run () =
  Common.section "per-element attribution (observability layer)";
  let results =
    List.map
      (fun sc ->
        let obs, r = measure sc in
        Common.subsection sc.sc_name;
        Common.row "%.0f pps forwarded, %.0f ns/packet\n"
          r.Testbed.r_forwarded_pps r.Testbed.r_total_ns;
        print_string (Obs.Report.table (Obs.Report.Sim mhz) obs);
        (sc, Obs.snapshot obs, Obs.total_sim_ns obs, r))
      (scenarios ())
  in
  Common.write_json ~section:"obs"
    (Json.Obj
       [
         ("section", Json.String "obs");
         ("cpu_mhz", Json.Float mhz);
         ( "scenarios",
           Json.List
             (List.map
                (fun (sc, stats, total_ns, (r : Testbed.result)) ->
                  Json.Obj
                    [
                      ("name", Json.String sc.sc_name);
                      ("batch", Json.Int sc.sc_batch);
                      ("aggregate_ns", Json.Int total_ns);
                      ("ns_per_packet", Json.Float r.Testbed.r_total_ns);
                      ("forwarded_pps", Json.Float r.Testbed.r_forwarded_pps);
                      ( "elements",
                        Json.List
                          (List.filter_map
                             (fun (s : Obs.stats) ->
                               if
                                 s.Obs.s_sim_ns > 0 || s.Obs.s_in > 0
                                 || s.Obs.s_out > 0 || s.Obs.s_drops > 0
                               then Some (element_json s)
                               else None)
                             stats) );
                    ])
                results) );
       ])
