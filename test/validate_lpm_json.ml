(* Schema validation for the LPM benchmark's JSON, used by the
   @lpm-smoke alias: reads BENCH_lpm.json (path argument, or stdin) and
   checks the shape the plotting/CI side depends on — every table size
   carries the four lookup variants with positive rates, certifies the
   trie-vs-linear differential, and clears the speedup bar (>= 10x at
   100k+ routes, the issue's acceptance criterion; >= 2x below that).
   Full (non-smoke) runs must include the 100k and 1M-route tables and
   an end-to-end number that shows forwarding did not collapse under
   table ballast. Exits 1 with a one-line diagnostic on the first
   violation. *)

module Json = Oclick_obs.Json
open Json_check

let check_variant ~label v =
  let name =
    match get label v "name" with
    | Json.String s -> s
    | _ -> die "%s: variant name is not a string" label
  in
  let label = Printf.sprintf "%s/%s" label name in
  let lookups = number label (get label v "lookups") in
  if lookups < 1.0 then die "%s: no lookups measured" label;
  let rate = number label (get label v "mlookups_per_s") in
  if rate <= 0.0 then die "%s: non-positive lookup rate" label;
  name

let check_size v =
  let routes =
    match get "size" v "routes" with
    | Json.Int r when r > 0 -> r
    | _ -> die "size: bad routes count"
  in
  let label = Printf.sprintf "%d routes" routes in
  if number label (get label v "trie_bytes") <= 0.0 then
    die "%s: trie_bytes not positive" label;
  if number label (get label v "leaf_blocks") < 0.0 then
    die "%s: negative leaf_blocks" label;
  (match get label v "differential_ok" with
  | Json.Bool true -> ()
  | _ -> die "%s: trie-vs-linear differential not certified" label);
  let names =
    match get label v "variants" with
    | Json.List vs -> List.map (check_variant ~label) vs
    | _ -> die "%s: variants is not a list" label
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then die "%s: missing variant %s" label want)
    [ "linear"; "trie_scalar"; "trie_batch"; "trie_compiled" ];
  let speedup = number label (get label v "speedup_trie_vs_linear") in
  let bar = if routes >= 100_000 then 10.0 else 2.0 in
  if speedup < bar then
    die "%s: trie speedup %.1fx below the %.0fx bar" label speedup bar;
  routes

let check_e2e doc =
  let v = get "doc" doc "e2e" in
  let label = "e2e" in
  let offered = number label (get label v "offered") in
  let forwarded = number label (get label v "forwarded") in
  if offered < 1.0 then die "%s: nothing offered" label;
  if forwarded < 1.0 then die "%s: nothing forwarded" label;
  if number label (get label v "extra_routes") < 1.0 then
    die "%s: no table ballast" label;
  let baseline = number label (get label v "baseline_pps") in
  let bigtable = number label (get label v "bigtable_pps") in
  if baseline <= 0.0 || bigtable <= 0.0 then die "%s: non-positive pps" label;
  (* DIR-24-8 lookups are table-size independent; ballast must not
     collapse end-to-end forwarding. Generous margin for timer noise. *)
  if bigtable < 0.3 *. baseline then
    die "%s: big-table pps %.0f collapsed vs baseline %.0f" label bigtable
      baseline

let () =
  let doc = read_doc () in
  (match Json.member "section" doc with
  | Some (Json.String "lpm") -> ()
  | _ -> die "missing section=\"lpm\"");
  let smoke =
    match get "doc" doc "smoke" with
    | Json.Bool b -> b
    | _ -> die "smoke is not a bool"
  in
  let sizes =
    match get "doc" doc "sizes" with
    | Json.List [] -> die "sizes is empty"
    | Json.List sizes -> List.map check_size sizes
    | _ -> die "sizes is not a list"
  in
  if not smoke then begin
    if not (List.exists (fun r -> r >= 100_000) sizes) then
      die "full run missing the 100k-route table";
    if not (List.exists (fun r -> r >= 1_000_000) sizes) then
      die "full run missing the 1M-route table"
  end;
  check_e2e doc;
  print_endline "ok"
