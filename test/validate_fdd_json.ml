(* Schema validation for the FDD benchmark's JSON, used by the
   @fdd-smoke alias: reads BENCH_fdd.json (path argument, or stdin) and
   checks the shape the plotting/CI side depends on — both cascade
   variants present with positive wall-clock rates, the cascade actually
   fused (one region absorbing every downstream stage, pruned to far
   fewer nodes than the stage count implies), and the fused-over-compiled
   speedup bar cleared. Wall-clock ratios on a smoke budget are one
   unwarmed repetition, so the bar is 1x there (no regression); full
   runs must clear the 2x acceptance bar. Exits 1 with a one-line
   diagnostic on the first violation. *)

module Json = Oclick_obs.Json
open Json_check

let check_variant ~label v =
  let name =
    match get label v "name" with
    | Json.String s -> s
    | _ -> die "%s: variant name is not a string" label
  in
  let label = Printf.sprintf "%s/%s" label name in
  if number label (get label v "forwarded") < 1.0 then
    die "%s: nothing forwarded" label;
  if number label (get label v "pps") <= 0.0 then
    die "%s: non-positive packet rate" label;
  (match get label v "compiled" with
  | Json.Bool true -> ()
  | _ -> die "%s: variant not compiled" label);
  (match get label v "fused" with
  | Json.Bool _ -> ()
  | _ -> die "%s: \"fused\" is not a bool" label);
  name

let check_regions ~stages doc =
  match get "doc" doc "cascade_regions" with
  | Json.List [] -> die "cascade_regions: no region fused on the cascade"
  | Json.List rs ->
      let deepest = ref 0 in
      List.iter
        (fun r ->
          let label =
            match get "region" r "entry" with
            | Json.String s -> s
            | _ -> die "region: entry is not a string"
          in
          let members =
            match get label r "members" with
            | Json.List (_ :: _ as ms) -> List.length ms
            | _ -> die "%s: fused region absorbed no member" label
          in
          deepest := max !deepest members;
          let nodes = int_of_float (number label (get label r "nodes")) in
          let actions = int_of_float (number label (get label r "actions")) in
          if actions < 1 then die "%s: no actions" label;
          (* Redundancy elimination is the point: a cascade of identical
             stages must prune to (roughly) one stage's tests, not
             concatenate. Allow 2x one stage's nodes as slack. *)
          if members >= 2 && nodes > 16 then
            die "%s: %d nodes for %d members — cascade tests not pruned"
              label nodes members)
        rs;
      if !deepest < stages - 1 then
        die "cascade_regions: deepest region absorbed %d members, want %d"
          !deepest (stages - 1)
  | _ -> die "cascade_regions is not a list"

let () =
  let doc = read_doc () in
  (match Json.member "section" doc with
  | Some (Json.String "fdd") -> ()
  | _ -> die "missing section=\"fdd\"");
  let smoke =
    match get "doc" doc "smoke" with
    | Json.Bool b -> b
    | _ -> die "smoke is not a bool"
  in
  let stages =
    match get "doc" doc "stages" with
    | Json.Int n when n >= 2 -> n
    | _ -> die "bad stage count"
  in
  let names =
    match get "doc" doc "variants" with
    | Json.List vs -> List.map (check_variant ~label:"variant") vs
    | _ -> die "variants is not a list"
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then die "missing variant %s" want)
    [
      "cascade12/compiled-scalar";
      "cascade12/fused-scalar";
      "cascade12/compiled-batch";
      "cascade12/fused-batch";
      "ip/compiled-scalar";
      "ip/fused-scalar";
    ];
  check_regions ~stages doc;
  let speedup = number "doc" (get "doc" doc "speedup_cascade_scalar") in
  let bar = if smoke then 1.0 else 2.0 in
  if speedup < bar then
    die "cascade speedup %.2fx below the %.1fx bar" speedup bar;
  print_endline "ok"
