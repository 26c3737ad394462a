(* Schema validation for the wall-clock batch benchmark's JSON, used by
   the @bench-smoke alias: reads BENCH_batch.json (path argument, or
   stdin) and checks the shape the plotting/CI side depends on — both
   variants present and loss-free, the pooled variant's minor-heap
   allocation per forwarded packet under the near-zero ceiling, and the
   pooled-over-scalar speedup bar cleared. Wall-clock ratios on a smoke
   budget are short windows, so the bar is 1x there (no regression);
   full runs must clear the 1.3x acceptance bar. The allocation ceilings
   are budget-independent — descriptor recycling allocates nothing per
   packet regardless of how many packets flow — so they are enforced on
   both. Exits 1 with a one-line diagnostic on the first violation. *)

module Json = Oclick_obs.Json
open Json_check

(* The pooled path's steady-state allocation budget, in minor-heap words
   per forwarded packet, end to end through the interpreted fig8 graph.
   The packet layer itself is exactly zero (recycled buffers, free-list
   recycling, closure-free accessors — enforced separately below); the
   residue is per-batch interpreter bookkeeping (work-charge boxes,
   flush closures) that amortizes below one word per packet at batch
   32. The scalar baseline runs ~50 words per packet (fresh buffer +
   descriptor per allocation), so the ceiling cleanly separates the
   recycling path from the allocating one. *)
let pooled_words_ceiling = 8.0

(* The isolated packet-layer lifecycle (pool alloc, blit, word reads,
   checksum, recycle) must allocate nothing at all; anything above
   rounding noise means a box crept back into the representation. *)
let packet_layer_ceiling = 0.5

let bool_field label obj field =
  match get label obj field with
  | Json.Bool b -> b
  | _ -> die "%s: %S is not a bool" label field

let check_variant ~label v =
  let name =
    match get label v "name" with
    | Json.String s -> s
    | _ -> die "%s: variant name is not a string" label
  in
  let label = Printf.sprintf "%s/%s" label name in
  let offered = number label (get label v "offered") in
  let forwarded = number label (get label v "forwarded") in
  if forwarded < 1.0 then die "%s: nothing forwarded" label;
  if forwarded <> offered then
    die "%s: lossy run (%.0f/%.0f)" label forwarded offered;
  if number label (get label v "pps") <= 0.0 then
    die "%s: non-positive packet rate" label;
  let words = number label (get label v "minor_words_per_packet") in
  if words < 0.0 then die "%s: negative allocation rate" label;
  if bool_field label v "pool" && words > pooled_words_ceiling then
    die "%s: pooled path allocates %.1f minor words/packet (ceiling %.0f)"
      label words pooled_words_ceiling;
  name

let () =
  let doc = read_doc () in
  (match Json.member "section" doc with
  | Some (Json.String "batch") -> ()
  | _ -> die "missing section=\"batch\"");
  let smoke = bool_field "doc" doc "smoke" in
  let names =
    match get "doc" doc "variants" with
    | Json.List vs -> List.map (check_variant ~label:"variant") vs
    | _ -> die "variants is not a list"
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then die "missing variant %S" want)
    [ "scalar"; "batched" ];
  let layer = number "doc" (get "doc" doc "packet_layer_words_per_packet") in
  if layer > packet_layer_ceiling then
    die "packet layer allocates %.2f minor words/packet (ceiling %.1f)" layer
      packet_layer_ceiling;
  let speedup = number "doc" (get "doc" doc "speedup") in
  let bar = if smoke then 1.0 else 1.3 in
  if speedup < bar then
    die "pooled speedup %.2fx vs scalar below the %.1fx bar" speedup bar;
  print_endline "ok"
