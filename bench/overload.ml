(* Overload resilience: offered-load vs goodput curves under adversarial
   traffic (the robustness evaluation for the bounded-state + admission
   control + watchdog work).

   Each workload shapes the same mean offered load differently:
   - uniform:   the baseline even flows — the plateau every other curve
                is judged against.
   - scan:      destinations sweep 16 addresses per flow; only one
                resolves, so the ARP querier sees a sustained miss storm
                and its bounded pending FIFOs / aged cache do the work.
   - arp-storm: every 4th frame is an ARP request for the router's own
                address, amplifying the control path with reply traffic.
   - burst:     heavy-tailed ON/OFF (bounded Pareto, mean 64, alpha 1.5)
                at wire speed in-burst — the queue/admission test.

   The resilience claim is a *plateau*: as offered load rises past
   saturation, goodput must flatten, not collapse — the router sheds the
   excess as cheap, accounted drops instead of melting down. Every run
   still passes the testbed's exact conservation check (births =
   deliveries + drops + residual, evictions and pending included);
   [Testbed.run] returns [Error] on any leak, so a row printing at all
   certifies the ledger balanced. *)

module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Host = Oclick_hw.Host
module Json = Oclick_obs.Json

let nports = 8
let platform = { Platform.p2 with Platform.p_nports = nports }

let flows =
  List.init nports (fun i ->
      { Testbed.fl_src = i; Testbed.fl_dst = (i + 4) mod nports })

let graph = Common.base_graph nports

let workloads =
  [
    ("uniform", Host.Uniform);
    ("scan", Host.Scan 16);
    ("arp-storm", Host.Arp_storm 4);
    ("burst", Host.Burst (64, 1.5));
  ]

let domain_counts = [ 1; 4 ]

let measure ~workload ~domains ~input_pps ~duration_ms ~warmup_ms =
  match
    Testbed.run ~duration_ms ~warmup_ms ~platform ~graph ~flows ~domains
      ~workload ~input_pps ()
  with
  | Ok r -> r
  | Error e -> failwith ("overload bench: " ^ e)

let total_drops (o : Testbed.outcome_counts) =
  o.Testbed.oc_fifo_overflow + o.Testbed.oc_missed_frame
  + o.Testbed.oc_queue_drop + o.Testbed.oc_element_fault
  + o.Testbed.oc_other_drop

let run () =
  Common.section "overload: goodput under adversarial load";
  let loads =
    if !Common.smoke then [ 400_000; 1_600_000 ]
    else [ 250_000; 500_000; 1_000_000; 2_000_000 ]
  in
  let duration_ms, warmup_ms = if !Common.smoke then (5, 3) else (40, 20) in
  Printf.printf
    "IP router (%d interfaces), %d crossing flows; conservation checked \
     exactly on every run\n\n"
    nports (List.length flows);
  Printf.printf "%-10s %8s %12s %12s %10s %10s\n" "workload" "domains"
    "offered pps" "goodput pps" "drops" "util";
  let curves =
    List.concat_map
      (fun (wname, workload) ->
        List.map
          (fun domains ->
            let points =
              List.map
                (fun input_pps ->
                  let r =
                    measure ~workload ~domains ~input_pps ~duration_ms
                      ~warmup_ms
                  in
                  Printf.printf "%-10s %8d %12d %12.0f %10d %9.2f\n" wname
                    domains input_pps r.Testbed.r_forwarded_pps
                    (total_drops r.Testbed.r_outcomes)
                    r.Testbed.r_cpu_utilization;
                  (input_pps, r))
                loads
            in
            print_newline ();
            (wname, domains, points))
          domain_counts)
      workloads
  in
  (* The plateau check: goodput at the highest offered load, as a
     fraction of the best goodput anywhere on the curve. A resilient
     datapath holds >= 0.7 — overload costs something (drop work is not
     free) but must not collapse throughput. *)
  let plateau points =
    let goodput (_, r) = r.Testbed.r_forwarded_pps in
    let best = List.fold_left (fun m p -> Float.max m (goodput p)) 0.0 points in
    let last = goodput (List.nth points (List.length points - 1)) in
    if best > 0.0 then last /. best else 1.0
  in
  Printf.printf "%-10s %8s %10s\n" "workload" "domains" "plateau";
  List.iter
    (fun (wname, domains, points) ->
      let p = plateau points in
      Printf.printf "%-10s %8d %9.2f %s\n" wname domains p
        (if p >= 0.7 then "(holds)" else "(COLLAPSED)"))
    curves;
  Common.write_json ~section:"overload"
    (Json.Obj
       [
         ("section", Json.String "overload");
         ("ports", Json.Int nports);
         ("duration_ms", Json.Int duration_ms);
         ("smoke", Json.Bool !Common.smoke);
         ( "loads",
           Json.List (List.map (fun l -> Json.Int l) loads) );
         ( "curves",
           Json.List
             (List.map
                (fun (wname, domains, points) ->
                  Json.Obj
                    [
                      ("workload", Json.String wname);
                      ("domains", Json.Int domains);
                      ("plateau", Json.Float (plateau points));
                      ( "points",
                        Json.List
                          (List.map
                             (fun (input_pps, (r : Testbed.result)) ->
                               Json.Obj
                                 [
                                   ("offered_pps", Json.Int input_pps);
                                   ( "goodput_pps",
                                     Json.Float r.Testbed.r_forwarded_pps
                                   );
                                   ( "drops",
                                     Json.Int
                                       (total_drops r.Testbed.r_outcomes) );
                                   ( "cpu_utilization",
                                     Json.Float r.Testbed.r_cpu_utilization
                                   );
                                   ( "conserved",
                                     (* Ok from Testbed.run implies the
                                        ledger balanced exactly. *)
                                     Json.Bool true );
                                 ])
                             points) );
                    ])
                curves) );
       ])
