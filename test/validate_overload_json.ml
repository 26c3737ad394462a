(* Schema validation for the overload benchmark's JSON, used by the
   @overload-smoke alias: reads BENCH_overload.json (path argument, or
   stdin) and checks the shape the plotting/CI side depends on — every
   curve identifies its workload and domain count, carries one point per
   offered load, every point certifies conservation, and every curve's
   goodput plateau held (>= 0.7 of its best goodput at the highest
   load). The testbed is deterministic, so the plateau check cannot
   flake. Exits 1 with a one-line diagnostic on the first violation. *)

module Json = Oclick_obs.Json
open Json_check

let check_point ~label ~expected_load v =
  let offered = int_of_float (number label (get label v "offered_pps")) in
  if offered <> expected_load then
    die "%s: offered_pps %d does not match declared load %d" label offered
      expected_load;
  let goodput = number label (get label v "goodput_pps") in
  if goodput < 0.0 then die "%s: negative goodput" label;
  let drops = number label (get label v "drops") in
  if drops < 0.0 then die "%s: negative drops" label;
  match get label v "conserved" with
  | Json.Bool true -> ()
  | _ -> die "%s: conservation not certified" label

let check_curve ~loads v =
  let label =
    match (Json.member "workload" v, Json.member "domains" v) with
    | Some (Json.String w), Some (Json.Int d) -> Printf.sprintf "%s/%d" w d
    | _ -> die "curve: missing workload/domains"
  in
  let domains =
    match get label v "domains" with
    | Json.Int d when d >= 1 -> d
    | _ -> die "%s: bad domains" label
  in
  ignore domains;
  let plateau = number label (get label v "plateau") in
  if plateau < 0.0 || plateau > 1.0 +. 1e-9 then
    die "%s: plateau %.3f outside [0,1]" label plateau;
  if plateau < 0.7 then
    die "%s: goodput collapsed under overload (plateau %.2f < 0.70)" label
      plateau;
  match get label v "points" with
  | Json.List points ->
      if List.length points <> List.length loads then
        die "%s: %d points for %d declared loads" label (List.length points)
          (List.length loads);
      List.iter2
        (fun load p -> check_point ~label ~expected_load:load p)
        loads points
  | _ -> die "%s: points is not a list" label

let () =
  let doc = read_doc () in
  (match Json.member "section" doc with
  | Some (Json.String "overload") -> ()
  | _ -> die "missing section=\"overload\"");
  let loads =
    match get "doc" doc "loads" with
    | Json.List l ->
        List.map
          (function
            | Json.Int i when i > 0 -> i
            | _ -> die "loads: not a positive integer")
          l
    | _ -> die "loads is not a list"
  in
  if loads = [] then die "loads is empty";
  match get "doc" doc "curves" with
  | Json.List [] -> die "curves is empty"
  | Json.List curves -> (
      List.iter (check_curve ~loads) curves;
      (* The resilience claim needs both the adversarial workloads and
         the multi-domain configuration present. *)
      let has w d =
        List.exists
          (fun c ->
            Json.member "workload" c = Some (Json.String w)
            && Json.member "domains" c = Some (Json.Int d))
          curves
      in
      match
        List.find_opt
          (fun (w, d) -> not (has w d))
          [
            ("uniform", 1); ("uniform", 4); ("scan", 1); ("scan", 4);
            ("arp-storm", 1); ("arp-storm", 4); ("burst", 1); ("burst", 4);
          ]
      with
      | Some (w, d) -> die "missing curve %s at %d domains" w d
      | None -> print_endline "ok")
  | _ -> die "curves is not a list"
