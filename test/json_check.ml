(* Helpers shared by the validate_*_json executables: each reads one JSON
   document, checks it, and exits 1 with a one-line diagnostic on the
   first violation. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

(* The document in the file named by the first argument, or on stdin. *)
let read_doc () =
  let input =
    if Array.length Sys.argv > 1 then (
      let ic = open_in Sys.argv.(1) in
      let s = read_all ic in
      close_in ic;
      s)
    else read_all stdin
  in
  match Oclick_obs.Json.of_string input with
  | Ok v -> v
  | Error e -> die "not valid JSON: %s" e

let number label = function
  | Oclick_obs.Json.Int i -> float_of_int i
  | Oclick_obs.Json.Float f -> f
  | _ -> die "%s: not a number" label

let get label obj field =
  match Oclick_obs.Json.member field obj with
  | Some v -> v
  | None -> die "%s: missing %S" label field
