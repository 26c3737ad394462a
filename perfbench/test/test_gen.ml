(* The workload generator is deterministic: the same seed gives the same
   stream digest and the same expected-outcome counts, and another seed
   gives another stream. *)

let check kind name =
  let a = Gen.generate kind ~seed:7 and b = Gen.generate kind ~seed:7 in
  let c = Gen.generate kind ~seed:8 in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline (name ^ ": " ^ s); exit 1) fmt in
  if Gen.digest a <> Gen.digest b then fail "same seed, different stream";
  if Gen.expected_counts a <> Gen.expected_counts b then
    fail "same seed, different expected outcomes";
  if Gen.digest a = Gen.digest c then fail "different seeds, same stream";
  let forwarded, drops = Gen.expected_counts a in
  let dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 drops in
  if forwarded = 0 || dropped = 0 then
    fail "expected both forwards and drops (%d, %d)" forwarded dropped;
  Printf.printf "%s: %s, %d frames out, %s\n" name (Gen.digest a) forwarded
    (String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) drops))

let () =
  check Gen.Iprouter "iprouter";
  check Gen.Cascade "cascade";
  check Gen.Churn "churn"
