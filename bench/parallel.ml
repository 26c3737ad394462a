(* Multicore scaling: the 8-port IP router sharded across simulated CPUs.

   Unlike the batch and compile sections, which measure real wall clock,
   this section runs in the simulated testbed so the scaling numbers are
   deterministic: the graph is partitioned at Queue boundaries exactly as
   the real multi-domain runner partitions it (lib/parallel), and each
   shard's scheduler advances its own simulated clock — [domains] CPUs
   progressing concurrently in simulated time. The router is offered
   well past single-CPU saturation, so forwarded throughput measures how
   much of the partitioned work the extra CPUs actually absorb.

   The grid is {1,2,4} domains x {scalar, batch 32} x {interpreted,
   compiled}. Speedups are per mode, against that mode's own
   single-domain run. *)

module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Partition = Oclick_parallel.Partition
module Json = Oclick_obs.Json

let nports = 8
let platform = { Platform.p2 with Platform.p_nports = nports }

(* Every host sends across the router: port i to port (i+4) mod 8. *)
let flows =
  List.init nports (fun i ->
      { Testbed.fl_src = i; Testbed.fl_dst = (i + 4) mod nports })

let graph = Common.base_graph nports
let domain_counts = [ 1; 2; 4 ]

let modes =
  [
    ("interpreted scalar", 1, false);
    ("interpreted batch 32", 32, false);
    ("compiled scalar", 1, true);
    ("compiled batch 32", 32, true);
  ]

let measure ~domains ~batch ~compile ~input_pps ~duration_ms ~warmup_ms =
  match
    Testbed.run ~duration_ms ~warmup_ms ~platform ~graph ~flows ~domains
      ~batch ~compile ~input_pps ()
  with
  | Ok r -> r
  | Error e -> failwith ("parallel bench: " ^ e)

let partition_json ~domains =
  match Partition.compute ~domains graph with
  | Error e -> failwith ("parallel bench: " ^ e)
  | Ok p ->
      Json.Obj
        [
          ("domains", Json.Int domains);
          ( "shard_sizes",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun n -> Json.Int n)
                    (Partition.shard_counts p))) );
          ("cuts", Json.Int (List.length p.Partition.pt_cuts));
          ("inserted_stages", Json.Int (2 * List.length p.Partition.pt_inserted));
        ]

let run () =
  Common.section "parallel: multicore scaling (simulated testbed)";
  (* 2M pps aggregate saturates one simulated 700 MHz CPU several times
     over; each Pro1000 host caps at 1M pps, so the offered load stays
     within the NIC model. *)
  let input_pps = 2_000_000 in
  let duration_ms, warmup_ms = if !Common.smoke then (8, 4) else (60, 30) in
  Printf.printf
    "IP router (%d interfaces), %d crossing flows, %d pps offered \
     (overload)\n\n"
    nports (List.length flows) input_pps;
  Printf.printf "%-22s %8s %14s %10s %8s\n" "variant" "domains" "fwd pps"
    "cpu util" "speedup";
  let results =
    List.map
      (fun (name, batch, compile) ->
        let runs =
          List.map
            (fun domains ->
              ( domains,
                measure ~domains ~batch ~compile ~input_pps ~duration_ms
                  ~warmup_ms ))
            domain_counts
        in
        let base =
          match runs with
          | (1, r) :: _ -> r.Testbed.r_forwarded_pps
          | _ -> assert false
        in
        List.iter
          (fun (domains, r) ->
            Printf.printf "%-22s %8d %14.0f %10.2f %7.2fx\n" name domains
              r.Testbed.r_forwarded_pps r.Testbed.r_cpu_utilization
              (r.Testbed.r_forwarded_pps /. base))
          runs;
        print_newline ();
        (name, batch, compile, runs, base))
      modes
  in
  let speedup_of name' =
    match
      List.find_opt (fun (name, _, _, _, _) -> name = name') results
    with
    | Some (_, _, _, runs, base) -> (
        match List.assoc_opt 4 runs with
        | Some r -> r.Testbed.r_forwarded_pps /. base
        | None -> 1.0)
    | None -> 1.0
  in
  Printf.printf
    "speedup at 4 domains: interpreted batch 32 %.2fx, compiled batch 32 \
     %.2fx\n"
    (speedup_of "interpreted batch 32")
    (speedup_of "compiled batch 32");
  Common.write_json ~section:"parallel"
    (Json.Obj
       [
         ("section", Json.String "parallel");
         ("ports", Json.Int nports);
         ("input_pps", Json.Int input_pps);
         ("duration_ms", Json.Int duration_ms);
         ("smoke", Json.Bool !Common.smoke);
         ( "partitions",
           Json.List
             (List.map
                (fun d -> partition_json ~domains:d)
                (List.filter (fun d -> d > 1) domain_counts)) );
         ( "variants",
           Json.List
             (List.concat_map
                (fun (name, batch, compile, runs, base) ->
                  List.map
                    (fun (domains, r) ->
                      Json.Obj
                        [
                          ("name", Json.String name);
                          ("domains", Json.Int domains);
                          ("batch", Json.Int batch);
                          ("compiled", Json.Bool compile);
                          ( "forwarded_pps",
                            Json.Float r.Testbed.r_forwarded_pps );
                          ( "cpu_utilization",
                            Json.Float r.Testbed.r_cpu_utilization );
                          ( "speedup",
                            Json.Float
                              (r.Testbed.r_forwarded_pps /. base) );
                        ])
                    runs)
                results) );
         ( "speedup_4dom_batch",
           Json.Float (speedup_of "interpreted batch 32") );
         ( "speedup_4dom_batch_compiled",
           Json.Float (speedup_of "compiled batch 32") );
       ])
