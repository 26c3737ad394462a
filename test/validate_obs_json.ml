(* Schema validation for observability JSON, used by the @obs-smoke
   alias: reads an oclick-report --json document on stdin, checks every
   per-element report against the schema (shape, field types, costs
   summing to the stated total), and checks that each report's total_ns
   equals the testbed aggregate it was measured against. Exits 1 with a
   one-line diagnostic on the first violation. *)

module Json = Oclick_obs.Json
open Json_check

(* The degradation/fusion sections every report carries, populated or
   not: consumers key on them unconditionally, so an absent or
   wrongly-typed field is a schema violation even when the run was
   clean. *)
let check_sections label v =
  (match Json.member "degraded" v with
  | Some (Json.Bool _) -> ()
  | Some _ -> die "%s: \"degraded\" is not a bool" label
  | None -> die "%s: missing \"degraded\"" label);
  (match Json.member "warnings" v with
  | Some (Json.List ws) ->
      List.iter
        (function
          | Json.String _ -> ()
          | _ -> die "%s: non-string warning" label)
        ws
  | Some _ -> die "%s: \"warnings\" is not a list" label
  | None -> die "%s: missing \"warnings\"" label);
  (match Json.member "route_tables" v with
  | Some (Json.List ts) ->
      List.iter
        (fun t ->
          (match Json.member "name" t with
          | Some (Json.String _) -> ()
          | _ -> die "%s: route table without a string \"name\"" label);
          match t with
          | Json.Obj kvs ->
              List.iter
                (fun (k, stat) ->
                  match stat with
                  | Json.Int _ | Json.String _ -> ()
                  | _ -> die "%s: route table stat %S is not an int" label k)
                kvs
          | _ -> die "%s: route table entry is not an object" label)
        ts
  | Some _ -> die "%s: \"route_tables\" is not a list" label
  | None -> die "%s: missing \"route_tables\"" label);
  match Json.member "fused_regions" v with
  | Some (Json.List rs) ->
      List.iter
        (fun r ->
          (match Json.member "entry" r with
          | Some (Json.String _) -> ()
          | _ -> die "%s: fused region without a string \"entry\"" label);
          (match Json.member "members" r with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> die "%s: fused region without members" label);
          (match (Json.member "nodes" r, Json.member "actions" r) with
          | Some (Json.Int n), Some (Json.Int a) when n >= 0 && a >= 1 -> ()
          | _ -> die "%s: fused region with bad nodes/actions" label);
          match Json.member "packets" r with
          | Some (Json.Int n) when n >= 0 -> ()
          | _ -> die "%s: fused region without a packet count" label)
        rs
  | Some _ -> die "%s: \"fused_regions\" is not a list" label
  | None -> die "%s: missing \"fused_regions\"" label

let check_report label v =
  (match Oclick_obs.Report.validate v with
  | Ok () -> ()
  | Error e -> die "%s: %s" label e);
  check_sections label v;
  match (Json.member "total_ns" v, Json.member "aggregate_ns" v) with
  | Some (Json.Int total), Some (Json.Int aggregate)
    when abs (total - aggregate) > 1 ->
      die "%s: per-element total %d ns != aggregate %d ns" label total
        aggregate
  | _ -> ()

let () =
  let doc = read_doc () in
  (match Json.member "tool" doc with
  | Some (Json.String _) -> ()
  | _ -> die "missing \"tool\" field");
  (match Json.member "passes" doc with
  | Some (Json.List passes) ->
      List.iteri
        (fun i v ->
          let label =
            match Json.member "pass" v with
            | Some (Json.String s) -> s
            | _ -> Printf.sprintf "pass %d" i
          in
          check_report label v)
        passes
  | Some _ -> die "\"passes\" is not a list"
  | None -> check_report "report" doc);
  print_endline "ok"
