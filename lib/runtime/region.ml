(* Declarative classification semantics an element may expose, and the
   one body builder every datapath derives from them. See region.mli. *)

module Tree = Oclick_classifier.Tree
module Packet = Oclick_packet.Packet

let consumed = min_int

type sem =
  | Classify of {
      cl_tree : Tree.t;
      cl_charge : int -> unit;
      cl_invalid : Packet.t -> unit;
    }
  | Set_paint of int
  | Paint_switch of { ps_invalid : Packet.t -> unit }
  | Guard of {
      gd_shift : int;
      gd_barrier : bool;
      gd_run : Packet.t -> bool;
    }
  | Mutate of (Packet.t -> unit)
  | Route of {
      rt_make : lean_work:bool -> Packet.t -> int;
      rt_make_batch : lean_work:bool -> Packet.t array -> int array -> unit;
    }

let stage = function
  | Set_paint c ->
      fun p ->
        (Packet.anno p).Packet.paint <- c;
        true
  | Guard { gd_run; _ } -> gd_run
  | Mutate f ->
      fun p ->
        f p;
        true
  | Classify _ | Paint_switch _ | Route _ ->
      invalid_arg "Region.stage: not a stage"

let body sem ~noutputs ~lean_work ~out =
  match sem with
  | Classify { cl_tree = t; cl_charge; cl_invalid } ->
      (* One continuation per leaf slot, slot 0 (the drop leaf) going to
         [cl_invalid]. Leaves past the outputs go there too: they become
         drop leaves, so every slot the walk returns is in the array. *)
      let clamp = function
        | Tree.Leaf k when k >= noutputs -> Tree.Leaf Tree.drop
        | l -> l
      in
      let node (n : Tree.node) =
        { n with yes = clamp n.yes; no = clamp n.no }
      in
      let tree =
        { t with root = clamp t.root; nodes = Array.map node t.nodes }
      in
      let slots =
        Array.init (noutputs + 1) (fun s ->
            if s = 0 then cl_invalid else out (s - 1))
      in
      if lean_work then fun p ->
        slots.(Tree.classify_packed tree p asr Tree.packed_visited_bits) p
      else fun p ->
        let v = Tree.classify_packed tree p in
        cl_charge (Tree.packed_visited v);
        slots.(v asr Tree.packed_visited_bits) p
  | Route { rt_make; _ } ->
      let lookup = rt_make ~lean_work in
      let outs = Array.init noutputs out in
      fun p ->
        let port = lookup p in
        if port >= 0 then outs.(port) p
  | Paint_switch { ps_invalid } ->
      let outs = Array.init noutputs out in
      fun p ->
        let c = (Packet.anno p).Packet.paint in
        if c >= 0 && c < noutputs then outs.(c) p else ps_invalid p
  | Set_paint _ | Guard _ | Mutate _ ->
      let eff = stage sem and k = out 0 in
      fun p -> if eff p then k p
