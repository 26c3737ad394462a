type target = Node of int | Leaf of int

let drop = -1

type node = { offset : int; mask : int; value : int; yes : target; no : target }
type t = { nodes : node array; root : target; noutputs : int }

let leaf_tree output noutputs = { nodes = [||]; root = Leaf output; noutputs }

let safe_length t =
  Array.fold_left (fun acc n -> max acc (n.offset + 4)) 0 t.nodes

let node_count t = Array.length t.nodes

let depth t =
  (* The tree is a DAG; memoize longest path per node. *)
  let memo = Array.make (Array.length t.nodes) (-1) in
  let rec go = function
    | Leaf _ -> 0
    | Node i ->
        if memo.(i) >= 0 then memo.(i)
        else begin
          (* Mark to catch cycles (malformed trees). *)
          memo.(i) <- 0;
          let d = 1 + max (go t.nodes.(i).yes) (go t.nodes.(i).no) in
          memo.(i) <- d;
          d
        end
  in
  go t.root

(* Reads that cross the end of the packet see zero bytes. That path is
   rare and kept out of line, so [packet_read] inlines into the walk. *)
let packet_read_padded p off =
  let len = Oclick_packet.Packet.length p in
  let byte i = if i < len then Oclick_packet.Packet.get_u8 p i else 0 in
  (byte off lsl 24) lor (byte (off + 1) lsl 16)
  lor (byte (off + 2) lsl 8)
  lor byte (off + 3)

let[@inline] packet_read p off =
  if off + 4 <= Oclick_packet.Packet.length p then
    Oclick_packet.Packet.get_u32 p off
  else packet_read_padded p off

(* The one classification walk: a top-level recursion from node to node
   over the packet directly (no [read] closure, no inner [go] closure,
   no result tuple), so classifying a packet allocates nothing. The
   visited count saturates at [packed_visited_max] — far beyond any
   real tree's depth. *)
let packed_visited_bits = 20
let packed_visited_max = (1 lsl packed_visited_bits) - 1

let rec walk_node nodes p n count =
  let count = if count < packed_visited_max then count + 1 else count in
  let next =
    if packet_read p n.offset land n.mask = n.value then n.yes else n.no
  in
  match next with
  | Leaf k -> ((k + 1) lsl packed_visited_bits) lor count
  | Node i -> walk_node nodes p nodes.(i) count

let classify_packed t p =
  match t.root with
  | Leaf k -> (k + 1) lsl packed_visited_bits
  | Node i -> walk_node t.nodes p t.nodes.(i) 0

let packed_output v = (v asr packed_visited_bits) - 1
let packed_visited v = v land packed_visited_max
let classify t p = packed_output (classify_packed t p)

let classify_count t p =
  let v = classify_packed t p in
  (packed_output v, packed_visited v)

let target_to_string = function
  | Node i -> string_of_int i
  | Leaf k -> if k = drop then "[drop]" else Printf.sprintf "[%d]" k

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "outputs %d root %s\n" t.noutputs
       (target_to_string t.root));
  Array.iteri
    (fun i n ->
      Buffer.add_string buf
        (Printf.sprintf "%d: off %d mask 0x%08x value 0x%08x yes %s no %s\n" i
           n.offset n.mask n.value (target_to_string n.yes)
           (target_to_string n.no)))
    t.nodes;
  Buffer.contents buf

let target_of_string s =
  let s = String.trim s in
  if String.equal s "[drop]" then Some (Leaf drop)
  else if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']'
  then
    match int_of_string_opt (String.sub s 1 (String.length s - 2)) with
    | Some k when k >= 0 -> Some (Leaf k)
    | _ -> None
  else
    match int_of_string_opt s with
    | Some i when i >= 0 -> Some (Node i)
    | _ -> None

(* A dump comes from outside the program, and the walk trusts its
   tree: every node target must name a node of the dump, and the nodes
   must form a DAG, or the walk would index out of bounds or never
   return. *)
let check_dag t =
  let n = Array.length t.nodes in
  (* 0: not yet seen, 1: on the current path, 2: checked *)
  let state = Array.make n 0 in
  let rec visit = function
    | Leaf _ -> Ok ()
    | Node i when i >= n ->
        Error (Printf.sprintf "node target %d past the %d nodes" i n)
    | Node i when state.(i) = 1 ->
        Error (Printf.sprintf "cycle through node %d" i)
    | Node i when state.(i) = 2 -> Ok ()
    | Node i ->
        state.(i) <- 1;
        Result.bind (visit t.nodes.(i).yes) (fun () ->
            Result.map (fun () -> state.(i) <- 2) (visit t.nodes.(i).no))
  in
  let rec from i =
    if i = n then Result.map (fun () -> t) (visit t.root)
    else Result.bind (visit (Node i)) (fun () -> from (i + 1))
  in
  from 0

let of_string s =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' s)
  in
  match lines with
  | [] -> Error "empty tree dump"
  | header :: rest -> (
      match
        Scanf.sscanf_opt header "outputs %d root %s" (fun n r -> (n, r))
      with
      | None -> Error (Printf.sprintf "bad tree header %S" header)
      | Some (noutputs, root_s) -> (
          match target_of_string root_s with
          | None -> Error (Printf.sprintf "bad root target %S" root_s)
          | Some root -> (
              let parse_line l =
                (* Scanf's %x rejects the 0x prefix, so read hex as %s. *)
                match
                  Scanf.sscanf_opt l "%d: off %d mask %s value %s yes %s no %s"
                    (fun i off mask value yes no ->
                      (i, off, mask, value, yes, no))
                with
                | Some (i, off, mask_s, value_s, yes, no) -> (
                    match (int_of_string_opt mask_s, int_of_string_opt value_s)
                    with
                    | Some mask, Some value ->
                        Some (i, off, mask, value, yes, no)
                    | _ -> None)
                | None -> None
              in
              let rec build acc expected = function
                | [] -> Ok (List.rev acc)
                | l :: rest -> (
                    match parse_line l with
                    | None -> Error (Printf.sprintf "bad tree line %S" l)
                    | Some (i, off, mask, value, yes_s, no_s) ->
                        if i <> expected then
                          Error (Printf.sprintf "node %d out of order" i)
                        else if off < 0 then
                          Error
                            (Printf.sprintf "node %d: negative offset %d" i off)
                        else (
                          match
                            (target_of_string yes_s, target_of_string no_s)
                          with
                          | Some yes, Some no ->
                              build
                                ({ offset = off; mask; value; yes; no } :: acc)
                                (expected + 1) rest
                          | _ -> Error (Printf.sprintf "bad targets in %S" l)))
              in
              match build [] 0 rest with
              | Error e -> Error e
              | Ok nodes ->
                  check_dag { nodes = Array.of_list nodes; root; noutputs })))

let renumber t =
  let order = Hashtbl.create 16 in
  let nodes = ref [] in
  let next = ref 0 in
  let rec visit = function
    | Leaf k -> Leaf k
    | Node i -> (
        match Hashtbl.find_opt order i with
        | Some j -> Node j
        | None ->
            let j = !next in
            incr next;
            Hashtbl.add order i j;
            (* Reserve the slot, then fill after visiting children so the
               preorder indices are stable. *)
            let n = t.nodes.(i) in
            let cell = ref n in
            nodes := (j, cell) :: !nodes;
            let yes = visit n.yes in
            let no = visit n.no in
            cell := { n with yes; no };
            Node j)
  in
  let root = visit t.root in
  let arr = Array.make !next { offset = 0; mask = 0; value = 0; yes = root; no = root } in
  List.iter (fun (j, cell) -> arr.(j) <- !cell) !nodes;
  { nodes = arr; root; noutputs = t.noutputs }

let equal a b =
  let a = renumber a and b = renumber b in
  a.root = b.root && a.noutputs = b.noutputs && a.nodes = b.nodes
