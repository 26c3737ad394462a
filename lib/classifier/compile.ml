let compile (t : Tree.t) =
  let memo : ((int -> int) -> int) option array =
    Array.make (Array.length t.nodes) None
  in
  let rec target_fn = function
    | Tree.Leaf k -> fun _ -> k
    | Tree.Node i -> node_fn i

  and node_fn i =
    match memo.(i) with
    | Some f -> f
    | None ->
        let n = t.nodes.(i) in
        let offset = n.offset and mask = n.mask and value = n.value in
        let yes = target_fn n.yes and no = target_fn n.no in
        let f read =
          if read offset land mask = value then yes read else no read
        in
        memo.(i) <- Some f;
        f
  in
  let entry = target_fn t.root in
  fun ~read -> entry read

let compile_packet t =
  let fast = compile t in
  fun p -> fast ~read:(Tree.packet_read p)
