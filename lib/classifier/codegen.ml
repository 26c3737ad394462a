let target_expr = function
  | Tree.Leaf k when k = Tree.drop -> "drop p"
  | Tree.Leaf k -> Printf.sprintf "output %d p" k
  | Tree.Node i -> Printf.sprintf "step_%d ()" i

(* Element-class names like "FastClassifier@@c0" are not valid OCaml
   module names; mangle for the generated source. *)
let module_name_of class_name =
  let b = Bytes.of_string class_name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  String.capitalize_ascii s

let ocaml_source ~class_name ~original_config (t : Tree.t) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "(* Generated by click-fastclassifier. Do not edit. *)\n";
  add "(* Original element: Classifier-family element with configuration:\n";
  add "   %s *)\n\n" (if original_config = "" then "<empty>" else original_config);
  add "module %s (Ports : sig\n" (module_name_of class_name);
  add "  val output : int -> Oclick_packet.Packet.t -> unit\n";
  add "  val drop : Oclick_packet.Packet.t -> unit\n";
  add "end) = struct\n";
  add "  open Ports\n\n";
  add "  (* %d decision nodes, %d outputs, safe length %d bytes *)\n"
    (Tree.node_count t) t.noutputs (Tree.safe_length t);
  add "  let length_unchecked_push read p =\n";
  if Array.length t.nodes = 0 then
    add "    %s\n" (target_expr t.root)
  else begin
    Array.iteri
      (fun i (n : Tree.node) ->
        let kw = if i = 0 then "let rec" else "and" in
        add "    %s step_%d () =\n" kw i;
        add "      if read %d land 0x%08x = 0x%08x\n" n.offset n.mask n.value;
        add "      then %s\n" (target_expr n.yes);
        add "      else %s\n" (target_expr n.no))
      t.nodes;
    add "    in\n    %s\n" (target_expr t.root)
  end;
  add "\n  let push p =\n";
  add "    let read off = Oclick_classifier.Tree.packet_read p off in\n";
  add "    length_unchecked_push read p\nend\n";
  Buffer.contents buf
