(* Schema validation for the autotuning benchmark's JSON, used by the
   @tune-smoke alias: reads BENCH_tune.json (path argument, or stdin)
   and checks the two acceptance bars. Every tuning cell must record
   its search budget and the evaluations actually spent within it, and
   the tuned configuration must forward at least as much as the best
   single-knob default of the same cell (the tuner feeds the default
   sweep in as extra starts, so anything less means the argmax broke).
   The placement object must show measured-cost partitioning strictly
   reducing the busiest shard's measured cost against static LPT on
   the skew config. Both properties come from the deterministic
   simulated testbed, so they are enforced on smoke and full budgets
   alike. Exits 1 with a one-line diagnostic on the first violation. *)

module Json = Oclick_obs.Json
open Json_check

let int_field label obj field =
  match get label obj field with
  | Json.Int i -> i
  | _ -> die "%s: %S is not an integer" label field

let string_field label obj field =
  match get label obj field with
  | Json.String s -> s
  | _ -> die "%s: %S is not a string" label field

let check_scored ~label obj =
  let pps = number (label ^ "/pps") (get label obj "pps") in
  let ns = number (label ^ "/ns_per_pkt") (get label obj "ns_per_pkt") in
  if pps <= 0.0 then die "%s: non-positive forwarding rate" label;
  if ns <= 0.0 then die "%s: non-positive CPU cost" label;
  if string_field label obj "config" = "" then die "%s: empty config" label;
  pps

let check_cell cell =
  let name = string_field "cell" cell "name" in
  let label = Printf.sprintf "cell/%s" name in
  (* The search budget must be recorded, and respected. *)
  let budget = int_field label cell "budget" in
  if budget < 1 then die "%s: search budget %d not recorded" label budget;
  let evals = int_field label cell "evals" in
  if evals < 1 || evals > budget then
    die "%s: %d evaluations outside budget %d" label evals budget;
  if int_field label cell "points" < 1 then die "%s: empty knob space" label;
  ignore (string_field label cell "workload");
  let tuned = get label cell "tuned" in
  if string_field (label ^ "/tuned") tuned "command" = "" then
    die "%s: tuned cell without a command line" label;
  let tuned_pps = check_scored ~label:(label ^ "/tuned") tuned in
  let bd_pps =
    check_scored ~label:(label ^ "/best_default")
      (get label cell "best_default")
  in
  (* The bar: the tuner starts from the single-knob sweep, so the tuned
     point can never forward less than the best default. *)
  if tuned_pps < bd_pps then
    die "%s: tuned %.0f pps below best single-knob default %.0f" label
      tuned_pps bd_pps;
  (match get label cell "defaults" with
  | Json.List (_ :: _) -> ()
  | _ -> die "%s: no single-knob default sweep recorded" label);
  name

let check_placement doc =
  let label = "placement" in
  let p = get "doc" doc "placement" in
  let domains = int_field label p "domains" in
  if domains < 2 then die "%s: %d domains is not a placement" label domains;
  let regions = int_field label p "regions" in
  if regions <= domains then
    die "%s: %d regions over %d domains leaves LPT no choices" label regions
      domains;
  let static = int_field label p "static_busiest_cost" in
  let measured = int_field label p "measured_busiest_cost" in
  if static <= 0 || measured <= 0 then
    die "%s: non-positive busiest-shard cost" label;
  (* The bar: profiled weights must strictly reduce the busiest shard's
     measured cost against static (count-weighted) LPT. *)
  if measured >= static then
    die "%s: measured-cost placement (busiest %d) does not beat static LPT \
         (busiest %d)"
      label measured static;
  if number label (get label p "reduction") <= 0.0 then
    die "%s: non-positive reduction" label;
  let util field =
    let v = number (label ^ "/" ^ field) (get label p field) in
    if v <= 0.0 then die "%s: non-positive %s" label field
  in
  util "static_cpu_utilization";
  util "measured_cpu_utilization"

let () =
  let doc = read_doc () in
  (match Json.member "section" doc with
  | Some (Json.String "tune") -> ()
  | _ -> die "missing section=\"tune\"");
  (match Json.member "smoke" doc with
  | Some (Json.Bool _) -> ()
  | _ -> die "missing smoke flag");
  if int_field "doc" doc "budget" < 1 then die "search budget not recorded";
  let names =
    match get "doc" doc "cells" with
    | Json.List cs -> List.map check_cell cs
    | _ -> die "cells is not a list"
  in
  if List.length names < 2 then
    die "only %d tuning cell(s); need at least two config x workload cells"
      (List.length names);
  List.iter
    (fun want ->
      if not (List.mem want names) then die "missing cell %S" want)
    [ "ip2/uniform"; "cascade6/burst" ];
  check_placement doc;
  print_endline "ok"
