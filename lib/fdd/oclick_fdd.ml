(* Cross-element match-action fusion: see oclick_fdd.mli for the
   overview. The planner symbolically executes a push region over the
   elements' Region.sem descriptions, grafting every classifier tree it
   meets (offsets translated by the accumulated Strip shift) into one
   forwarding decision diagram whose leaves are fused action sequences.

   Exactness is the whole game. Every leaf action runs the transfer
   protocol's own steps hop by hop — Element.hop's quarantine check and
   report on entering each collapsed element, the element's effect
   under Element.contain, the containment a transfer into it gives,
   classification work charged with the per-path visited
   count the interpreted walk would have counted — so outcome totals,
   drop reasons, and per-hop obs ledgers are byte-identical to the
   interpreted run. Tests are hoisted above effects, which is sound
   because (a) sem effects never change bytes a hoisted test reads
   (Strip only shifts, and shifted offsets read the same bytes through
   the shared zero-fill reader, Tree.packet_read), (b) elements that
   can rewrite bytes or lengths mark themselves barriers and stop
   further hoisting, and (c) a failed guard stops its leaf action
   before any downstream effect, and every leaf sharing that action
   prefix behaves identically up to the failure point. *)

module Packet = Oclick_packet.Packet
module Tree = Oclick_classifier.Tree
module Element = Oclick_runtime.Element
module Region = Oclick_runtime.Region

type ctx = {
  fd_elements : Element.t array;
  fd_port : int -> int -> (Packet.t -> unit) * (Packet.t array -> unit);
}

type region = {
  rg_entry : string;
  rg_members : string list;
  rg_nodes : int;
  rg_actions : int;
  mutable rg_packets : int;
}

type fused = {
  fu_scalar : Packet.t -> unit;
  fu_vector : Packet.t array -> unit;
  fu_region : region;
}

(* --- regions ------------------------------------------------------------ *)

(* Path expansion of classifier DAGs can blow up; past these budgets the
   region is abandoned and the compiler falls back to per-element
   bodies, which are always available. *)
let node_budget = 4096
let action_budget = 512

exception Too_big

(* A leaf action is a sequence of op keys plus an exit. Keys (not
   closures) so structurally identical actions — common once charges
   are specialized away under lean hooks — share one compiled body. *)
type opk =
  | K_enter of int * int * int * int  (* src, src port, dst, dst port *)
  | K_charge of int * int  (* classifier element, visited count *)
  | K_eff of int  (* the element's sem effect *)
  | K_invalid of int  (* the element's classified-to-no-output sink *)

type exitk =
  | X_conn of int * int  (* leave through a compiled connection *)
  | X_drop of int * int  (* unconnected port outside the wiring table *)
  | X_route of int  (* route-lookup leaf *)
  | X_none  (* path already consumed by a K_invalid *)

type plan = {
  pl_entry : int;
  pl_root : Tree.target;
  pl_nodes : Tree.node array;
  pl_actions : (opk list * exitk) array;
  pl_members : int list;  (* absorbed elements, ascending *)
  pl_absorbed : (int * int, unit) Hashtbl.t;  (* edges the diagram crosses *)
}

(* Path constraints for redundancy elimination — the optimization that
   makes a cascade collapse rather than merely concatenate. A tree test
   is identified by its (translated offset, mask) read; along one
   diagram path each read has either a known masked value (we sit under
   its yes branch) or a set of excluded values (under no branches). A
   regrafted test that repeats a decided read resolves immediately, so
   tests repeated across cascaded elements cost nothing per packet.
   Sound because reads are pure (zero-fill past the end included) and
   byte-mutating stages are barriers that stop tree absorption. *)
module FMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type fact = Known of int | Excluded of int list

(* Whether [e]'s output [port] runs a wire mangler. *)
let mangled (e : Element.t) port =
  match e#link port with Some ln -> ln.Element.ln_mangle <> None | _ -> false

let plan (elements : Element.t array) (out : (int * int) option array array)
    entry =
  let el i = elements.(i) in
  let nodes = ref [] in
  let ncount = ref 0 in
  let interned : (int * int * int * Tree.target * Tree.target, Tree.target)
      Hashtbl.t =
    Hashtbl.create 64
  in
  let mk_node ~offset ~mask ~value yes no =
    if yes = no then yes
    else begin
      let key = (offset, mask, value, yes, no) in
      match Hashtbl.find_opt interned key with
      | Some t -> t
      | None ->
          if !ncount >= node_budget then raise Too_big;
          let j = !ncount in
          incr ncount;
          nodes := { Tree.offset; mask; value; yes; no } :: !nodes;
          let t = Tree.Node j in
          Hashtbl.add interned key t;
          t
    end
  in
  let actions = ref [] in
  let acount = ref 0 in
  let action_memo : (opk list * exitk, int) Hashtbl.t = Hashtbl.create 16 in
  let leaf_of ops exitk =
    let key = (List.rev ops, exitk) in
    match Hashtbl.find_opt action_memo key with
    | Some k -> Tree.Leaf k
    | None ->
        if !acount >= action_budget then raise Too_big;
        let k = !acount in
        incr acount;
        actions := key :: !actions;
        Hashtbl.add action_memo key k;
        Tree.Leaf k
  in
  let members = Hashtbl.create 8 in
  let absorbed = Hashtbl.create 8 in
  let folded = ref false in
  (* The symbolic state: [shift] translates downstream tree offsets past
     the Strips seen so far; [paint] is the statically known paint color
     (for folding PaintSwitch); [barrier] forbids hoisting further tests
     once a byte/length-mutating stage was absorbed; [path] breaks
     cycles; [ops] is the reversed action prefix. *)
  let rec enter_element ~from:(i, port) (j, dst_port) ~shift ~paint ~barrier
      ~path ~ops ~facts =
    let absorbable =
      (not (List.mem j path))
      && (not (mangled (el i) port))
      &&
      match (el j)#region_sem with
      | None -> false
      | Some (Region.Classify _) -> not barrier
      | Some (Region.Paint_switch _) -> paint <> None
      | Some _ -> true
    in
    if not absorbable then leaf_of ops (X_conn (i, port))
    else begin
      Hashtbl.replace members j ();
      Hashtbl.replace absorbed (i, port) ();
      let ops = K_enter (i, port, j, dst_port) :: ops in
      run_element j ~shift ~paint ~barrier ~path:(j :: path) ~ops ~facts
    end
  and run_element j ~shift ~paint ~barrier ~path ~ops ~facts =
    match (el j)#region_sem with
    | None -> assert false (* only absorbable elements are run *)
    | Some (Region.Classify { cl_tree; _ }) ->
        graft j cl_tree cl_tree.Tree.root 0 ~shift ~paint ~barrier ~path ~ops
          ~facts
    | Some (Region.Set_paint c) ->
        continue j 0 ~shift ~paint:(Some c) ~barrier ~path
          ~ops:(K_eff j :: ops) ~facts
    | Some (Region.Paint_switch _) -> (
        folded := true;
        match paint with
        | Some c when c >= 0 && c < (el j)#noutputs ->
            continue j c ~shift ~paint ~barrier ~path ~ops ~facts
        | Some _ -> leaf_of (K_invalid j :: ops) X_none
        | None -> assert false)
    | Some (Region.Guard { gd_shift; gd_barrier; _ }) ->
        (* A barrier may rewrite bytes, so facts about reads stop being
           true past it. (Tree absorption stops there too, so the facts
           could never be consulted — dropping them keeps the invariant
           local.) *)
        continue j 0 ~shift:(shift + gd_shift) ~paint
          ~barrier:(barrier || gd_barrier) ~path ~ops:(K_eff j :: ops)
          ~facts:(if gd_barrier then FMap.empty else facts)
    | Some (Region.Mutate _) ->
        continue j 0 ~shift ~paint ~barrier ~path ~ops:(K_eff j :: ops) ~facts
    | Some (Region.Route _) -> leaf_of ops (X_route j)
  and continue j port ~shift ~paint ~barrier ~path ~ops ~facts =
    let outs = out.(j) in
    if port < 0 || port >= Array.length outs then
      leaf_of ops (X_drop (j, port))
    else
      match outs.(port) with
      | None -> leaf_of ops (X_conn (j, port))
      | Some (m, mport) ->
          enter_element ~from:(j, port) (m, mport) ~shift ~paint ~barrier
            ~path ~ops ~facts
  and graft j tree target visited ~shift ~paint ~barrier ~path ~ops ~facts =
    match target with
    | Tree.Leaf k ->
        let ops =
          if (el j)#lean_work then ops else K_charge (j, visited) :: ops
        in
        if k >= 0 && k < (el j)#noutputs then
          continue j k ~shift ~paint ~barrier ~path ~ops ~facts
        else leaf_of (K_invalid j :: ops) X_none
    | Tree.Node ni -> (
        let n = tree.Tree.nodes.(ni) in
        let offset = n.Tree.offset + shift in
        let key = (offset, n.Tree.mask) in
        let v = n.Tree.value in
        (* A decided test is pruned from the diagram but still counted in
           [visited]: the element's own interpreted walk visits the node
           regardless, and the K_charge must replay that exact count. *)
        let decided =
          match FMap.find_opt key facts with
          | Some (Known w) -> Some (w = v)
          | Some (Excluded ws) -> if List.mem v ws then Some false else None
          | None -> None
        in
        match decided with
        | Some true ->
            graft j tree n.Tree.yes (visited + 1) ~shift ~paint ~barrier
              ~path ~ops ~facts
        | Some false ->
            graft j tree n.Tree.no (visited + 1) ~shift ~paint ~barrier ~path
              ~ops ~facts
        | None ->
            let excluded =
              match FMap.find_opt key facts with
              | Some (Excluded ws) -> ws
              | _ -> []
            in
            let yes =
              graft j tree n.Tree.yes (visited + 1) ~shift ~paint ~barrier
                ~path ~ops
                ~facts:(FMap.add key (Known v) facts)
            in
            let no =
              graft j tree n.Tree.no (visited + 1) ~shift ~paint ~barrier ~path
                ~ops
                ~facts:(FMap.add key (Excluded (v :: excluded)) facts)
            in
            mk_node ~offset ~mask:n.Tree.mask ~value:v yes no)
  in
  match (el entry)#region_sem with
  | None | Some (Region.Paint_switch _) | Some (Region.Route _) ->
      (* No cascade can start here: unknown paint can't fold, and a
         bare route lookup is already one closure, its own
         [Region.body]. *)
      None
  | Some _ -> (
      match
        run_element entry ~shift:0 ~paint:None ~barrier:false ~path:[ entry ]
          ~ops:[] ~facts:FMap.empty
      with
      | exception Too_big -> None
      | root ->
          if Hashtbl.length members = 0 || (!ncount = 0 && not !folded) then
            (* The region never crossed an element boundary, or it
               decides nothing: no test node and no folded PaintSwitch,
               so its one leaf action would run the same stages as the
               per-element bodies through more closure layers (measured
               slower on the IP router's output chains). The elements'
               own bodies ([Region.body]) are the cheaper form of the
               same semantics. *)
            None
          else
            Some
              {
                pl_entry = entry;
                pl_root = root;
                pl_nodes = Array.of_list (List.rev !nodes);
                pl_actions = Array.of_list (List.rev !actions);
                pl_members =
                  List.sort compare
                    (Hashtbl.fold (fun j () acc -> j :: acc) members []);
                pl_absorbed = absorbed;
              })

(* Region roots: an element gets its own diagram only when some push
   edge into it is live — crossed at run time by a closure that is not
   itself a diagram absorbing that edge. Edges out of elements without
   region semantics (devices, Queues, ARP, …) or with a wire mangler are
   live from the start. A planned diagram makes live every edge its
   entry and members leave by without absorbing it (exits, side
   outputs, route ports); an element that roots no diagram runs its
   per-element body, so all of its out-edges are live. The worklist
   reaches a fixpoint in one pass per element. *)
let plan_regions elements out =
  let n = Array.length elements in
  let plans = Array.make n None in
  let seen = Array.make n false in
  let pending = Queue.create () in
  let enter j =
    if not seen.(j) then begin
      seen.(j) <- true;
      Queue.add j pending
    end
  in
  let leave ?(kept = fun _ -> false) i =
    Array.iteri
      (fun port -> function
        | Some (j, _) when not (kept port) -> enter j
        | _ -> ())
      out.(i)
  in
  Array.iteri
    (fun i (e : Element.t) ->
      if e#region_sem = None then leave i
      else leave ~kept:(fun port -> not (mangled e port)) i)
    elements;
  while not (Queue.is_empty pending) do
    let j = Queue.pop pending in
    match plan elements out j with
    | None -> leave j
    | Some pl ->
        plans.(j) <- Some pl;
        List.iter
          (fun m -> leave ~kept:(fun port -> Hashtbl.mem pl.pl_absorbed (m, port)) m)
          (j :: pl.pl_members)
  done;
  plans

(* --- the vector form ---------------------------------------------------- *)

(* A column step runs one op over a sub-vector: [col.(0..m-1)] are the
   packets, [pos] their arrival positions in the incoming vector. It
   compacts the survivors (packets and positions together, arrival
   order kept) to the front and returns how many there are. *)
type vstep = Packet.t array -> int array -> int -> int

(* The leaf actions' op sequences merged into a trie: leaves that share
   an op prefix share its nodes, so an op common to several leaves runs
   once over the union of their packets, in arrival order — the order
   in which the interpreted [push_batch] of that element would see them.
   Consecutive faults in an element reached before any split (the
   region entry, say) therefore trip quarantine on the same packet as
   in the interpreted batched run. *)
type tnode = {
  tn_id : int;
  tn_key : opk option;  (* [None] at the root *)
  tn_step : vstep option;
  tn_depth : int;
  mutable tn_kids : tnode array;
  mutable tn_terminal : bool;  (* some leaf action's ops end here *)
}

let compile ctx pl =
  let el i = ctx.fd_elements.(i) in
  let link i port = Option.get ((el i)#link port) in
  let charge_of j =
    match (el j)#region_sem with
    | Some (Region.Classify { cl_charge; _ }) -> cl_charge
    | _ -> assert false
  in
  let invalid_of j =
    match (el j)#region_sem with
    | Some (Region.Classify { cl_invalid; _ }) -> cl_invalid
    | Some (Region.Paint_switch { ps_invalid }) -> ps_invalid
    | _ -> assert false
  in
  let eff_of j =
    match (el j)#region_sem with
    | Some sem -> Region.stage sem
    | None -> assert false
  in
  (* An op of [j] runs under the containment a transfer into [j] gives:
     a fault is [j]'s, and the leaf action stops. *)
  let contain j f = Element.contain (el j) ~faulted:false f in
  (* The column form of a contained per-packet op: quarantine is
     re-checked per packet, as the element's own [push_batch] does, so a
     quarantine tripped mid-vector drops the rest of the vector. *)
  let per_packet j f : vstep =
    let dst = el j in
    let quarantined, _ = dst#degrade_cells in
    fun col pos m ->
      let k = ref 0 in
      for t = 0 to m - 1 do
        let p = col.(t) in
        if !quarantined then dst#drop ~reason:"quarantined element" p
        else if f p then begin
          if !k < t then begin
            col.(!k) <- p;
            pos.(!k) <- pos.(t)
          end;
          incr k
        end
      done;
      !k
  in
  (* The scalar hop into [j]. The transfer clears [j]'s consecutive-fault
     count once [j]'s push returns normally; when [j] runs an op of its
     own right after the hop, that op's containment clears it on success
     instead ([reset:false]), so faults in [j] still accumulate across
     packets towards quarantine. *)
  let enter_scalar ~reset = function
    | K_enter (i, port, _, _) -> Element.hop (link i port) ~reset
    | _ -> assert false
  in
  (* The entry element's own ops in the scalar body run uncontained: a
     fault escapes to the connection into the region, which accounts it
     exactly as it accounts a fault escaping the element's [push] —
     without clearing the element's consecutive-fault count. *)
  let entry_scalar = function
    | K_charge (j, visited) ->
        let charge = charge_of j in
        fun _p ->
          charge visited;
          true
    | K_eff j -> eff_of j
    | K_invalid j ->
        let invalid = invalid_of j in
        fun p ->
          invalid p;
          false
    | K_enter _ -> assert false
  in
  let owner = function
    | K_charge (j, _) | K_eff j | K_invalid j -> j
    | K_enter _ -> -1
  in
  (* Every op key compiles once into both forms: a per-packet step for
     the scalar body and a column step for the vector body. *)
  let op_tbl : (opk, (Packet.t -> bool) * vstep) Hashtbl.t =
    Hashtbl.create 16
  in
  let op_fn key =
    match Hashtbl.find_opt op_tbl key with
    | Some f -> f
    | None ->
        let f =
          match key with
          | K_enter (i, port, _, _) ->
              (* One check and one report per hop per sub-vector, as the
                 batched transfer makes. *)
              let col = Element.hop_col (link i port) in
              (enter_scalar ~reset:true key, fun c _pos m -> col c m)
          | K_charge (j, visited) ->
              let charge = charge_of j in
              let scalar =
                contain j (fun _p ->
                    charge visited;
                    true)
              in
              (* One summed charge per sub-vector: the cost model is
                 linear in nodes visited. *)
              let col =
                Element.contain_col (el j) (fun _col m -> charge (visited * m))
              in
              (scalar, fun c _pos m -> col c m)
          | K_eff j ->
              let f = contain j (eff_of j) in
              (f, per_packet j f)
          | K_invalid j ->
              let invalid = invalid_of j in
              let f =
                contain j (fun p ->
                    invalid p;
                    false)
              in
              (f, per_packet j f)
        in
        Hashtbl.replace op_tbl key f;
        f
  in
  let route_exit j =
    match (el j)#region_sem with
    | Some (Region.Route { rt_make; _ }) ->
        let dst = el j in
        let lookup =
          Element.contain dst ~faulted:Region.consumed
            (rt_make ~lean_work:dst#lean_work)
        in
        let outs = Array.map fst (Array.init dst#noutputs (ctx.fd_port j)) in
        let scalar p =
          let port = lookup p in
          if port >= 0 then outs.(port) p
        in
        (* A bucket goes to the element's own [push_batch]: one batched
           trie walk and run-length emission on its outputs. *)
        let push_batch =
          Element.contain_col dst (fun batch _ -> dst#push_batch 0 batch)
        in
        let vector batch =
          let n = Array.length batch in
          if n = 1 then scalar batch.(0) else ignore (push_batch batch n)
        in
        (scalar, vector)
    | _ -> assert false
  in
  let exit_tbl = Hashtbl.create 8 in
  let exit_fn exitk =
    match Hashtbl.find_opt exit_tbl exitk with
    | Some f -> f
    | None ->
        let f =
          match exitk with
          | X_conn (i, port) -> ctx.fd_port i port
          | X_drop (j, port) -> Element.unwired (el j) port
          | X_route j -> route_exit j
          | X_none -> (ignore, ignore)
        in
        Hashtbl.replace exit_tbl exitk f;
        f
  in
  let nact = Array.length pl.pl_actions in
  (* --- the scalar body: one diagram walk, then the leaf's action --------- *)
  let compile_action (ops, exitk) =
    let rec scalar_steps = function
      | [] -> []
      | (K_enter (_, _, j, _) as k) :: (next :: _ as rest) when owner next = j ->
          enter_scalar ~reset:false k :: scalar_steps rest
      | k :: rest when owner k = pl.pl_entry -> entry_scalar k :: scalar_steps rest
      | k :: rest -> fst (op_fn k) :: scalar_steps rest
    in
    let steps = Array.of_list (scalar_steps ops) in
    let exit = fst (exit_fn exitk) in
    let n = Array.length steps in
    (* [go] is built once, outside the per-packet closure: defined inside
       it, it would be allocated on every region entry. *)
    let rec go i p =
      if i >= n then exit p else if steps.(i) p then go (i + 1) p
    in
    if n = 0 then exit else fun p -> go 0 p
  in
  (* Leaf slot [l + 1] runs leaf action [l]; no leaf of the diagram is
     the drop leaf, so slot 0 is never taken. *)
  let slots =
    Array.append [| ignore |] (Array.map compile_action pl.pl_actions)
  in
  let diagram =
    { Tree.nodes = pl.pl_nodes; root = pl.pl_root; noutputs = nact }
  in
  let region =
    {
      rg_entry = (el pl.pl_entry)#name;
      rg_members = List.map (fun j -> (el j)#name) pl.pl_members;
      rg_nodes = Array.length pl.pl_nodes;
      rg_actions = nact;
      rg_packets = 0;
    }
  in
  let scalar p =
    region.rg_packets <- region.rg_packets + 1;
    slots.(Tree.classify_packed diagram p asr Tree.packed_visited_bits) p
  in
  (* --- the vector body ---------------------------------------------------- *)
  (* Exits a vector can leave by in bulk, deduplicated across leaves. A
     leaf's [term] is its exit id, or -1 when it finishes in place (an
     unconnected-port drop, or nothing once a K_invalid consumed it). *)
  let exit_ids = Hashtbl.create 8 in
  let exit_vecs = ref [] in
  let term = Array.make nact (-1) in
  let finish = Array.make nact ignore in
  Array.iteri
    (fun l (_, exitk) ->
      match exitk with
      | X_conn _ | X_route _ ->
          term.(l) <-
            (match Hashtbl.find_opt exit_ids exitk with
            | Some e -> e
            | None ->
                let e = Hashtbl.length exit_ids in
                Hashtbl.add exit_ids exitk e;
                exit_vecs := snd (exit_fn exitk) :: !exit_vecs;
                e)
      | X_drop _ | X_none -> finish.(l) <- fst (exit_fn exitk))
    pl.pl_actions;
  let exit_vec = Array.of_list (List.rev !exit_vecs) in
  let nexits = Array.length exit_vec in
  let nnodes = ref 1 in
  let root =
    {
      tn_id = 0;
      tn_key = None;
      tn_step = None;
      tn_depth = 0;
      tn_kids = [||];
      tn_terminal = false;
    }
  in
  (* [choice.(l).(d)]: which child leaf [l] takes below depth [d];
     [ends.(l)]: the node its ops end at. *)
  let ends = Array.make nact 0 in
  let choice =
    Array.mapi
      (fun l (ops, _) ->
        let node = ref root in
        let path =
          List.map
            (fun key ->
              let n = !node in
              let rec find i =
                if i = Array.length n.tn_kids then begin
                  n.tn_kids <-
                    Array.append n.tn_kids
                      [|
                        {
                          tn_id = !nnodes;
                          tn_key = Some key;
                          tn_step = Some (snd (op_fn key));
                          tn_depth = n.tn_depth + 1;
                          tn_kids = [||];
                          tn_terminal = false;
                        };
                      |];
                  incr nnodes;
                  i
                end
                else if n.tn_kids.(i).tn_key = Some key then i
                else find (i + 1)
              in
              let i = find 0 in
              node := n.tn_kids.(i);
              i)
            ops
        in
        !node.tn_terminal <- true;
        ends.(l) <- !node.tn_id;
        Array.of_list path)
      pl.pl_actions
  in
  let rec height n =
    Array.fold_left (fun h k -> max h (1 + height k)) 0 n.tn_kids
  in
  let ncols = height root + 1 in
  (* Scratch, grown to the largest vector seen. It is live only until the
     exits are dispatched: ops inside the region leave through scalar
     side outputs only, and every bucket is copied out (or compacted into
     the caller's array) before the first dispatch, so an exit that
     loops back into this region re-enters with the scratch free. *)
  let dummy = Packet.create 0 in
  let cap = ref 0 in
  let leaf_of = ref [||] and exit_of = ref [||] and exit_tmp = ref [||] in
  let term_pkt = ref [||] in
  let cols = Array.make ncols [||] and poss = Array.make ncols [||] in
  let ecount = Array.make nexits 0 in
  let used = Array.make nexits 0 and slot = Array.make nexits 0 in
  (* How many packets of the vector stamped [gen] have their leaf end at
     each trie node: a node no leaf of this vector ends at is crossed
     without a scan. *)
  let tcount = Array.make !nnodes 0 and tstamp = Array.make !nnodes 0 in
  let gen = ref 0 in
  (* [fast_m >= 0]: every exiting packet ended on the incoming vector
     itself, compacted to its front with its exit in [exit_tmp] (the
     common single-path case). [slow]: exiting packets sit in
     [term_pkt]/[exit_of] by arrival position. *)
  let fast_m = ref (-1) and slow = ref false in
  let grow n =
    cap := n;
    leaf_of := Array.make n 0;
    exit_of := Array.make n (-1);
    exit_tmp := Array.make n 0;
    term_pkt := Array.make n dummy;
    for b = 0 to ncols - 1 do
      cols.(b) <- Array.make n dummy;
      poss.(b) <- Array.make n 0
    done
  in
  (* Settle the packets whose leaf ends at node [id]: finish them in
     place or record their exit; the others are compacted to the
     front and their count returned. *)
  let settle id col pos b m =
    let leaf_of = !leaf_of in
    let all_end = ref true and t = ref 0 in
    while !all_end && !t < m do
      if ends.(leaf_of.(pos.(!t))) <> id then all_end := false;
      incr t
    done;
    if !all_end && b = 0 && not !slow then begin
      let exit_tmp = !exit_tmp in
      let w = ref 0 in
      for t = 0 to m - 1 do
        let p = col.(t) in
        let l = leaf_of.(pos.(t)) in
        let e = term.(l) in
        if e >= 0 then begin
          if !w < t then col.(!w) <- p;
          exit_tmp.(!w) <- e;
          incr w
        end
        else finish.(l) p
      done;
      fast_m := !w;
      0
    end
    else begin
      let term_pkt = !term_pkt and exit_of = !exit_of in
      let k = ref 0 in
      for t = 0 to m - 1 do
        let p = col.(t) and q = pos.(t) in
        let l = leaf_of.(q) in
        if ends.(l) = id then begin
          let e = term.(l) in
          if e >= 0 then begin
            slow := true;
            term_pkt.(q) <- p;
            exit_of.(q) <- e
          end
          else finish.(l) p
        end
        else begin
          if !k < t then begin
            col.(!k) <- p;
            pos.(!k) <- q
          end;
          incr k
        end
      done;
      !k
    end
  in
  let rec exec node col pos b m =
    let m = match node.tn_step with None -> m | Some f -> f col pos m in
    let id = node.tn_id in
    let m =
      if m > 0 && node.tn_terminal && tstamp.(id) = !gen && tcount.(id) > 0
      then settle id col pos b m
      else m
    in
    let kids = node.tn_kids in
    let last = Array.length kids - 1 in
    if m > 0 && last >= 0 then
      if last = 0 then exec kids.(0) col pos b m
      else begin
        let leaf_of = !leaf_of in
        let d = node.tn_depth in
        let first = choice.(leaf_of.(pos.(0))).(d) in
        let same = ref true and t = ref 1 in
        while !same && !t < m do
          if choice.(leaf_of.(pos.(!t))).(d) <> first then same := false;
          incr t
        done;
        if !same then exec kids.(first) col pos b m
        else begin
          (* Every child but the last gets its packets copied to the
             next column; the last one compacts in place and runs on
             this column once the others are done with it. *)
          let sub = cols.(b + 1) and spos = poss.(b + 1) in
          for ci = 0 to last - 1 do
            let k = ref 0 in
            for t = 0 to m - 1 do
              if choice.(leaf_of.(pos.(t))).(d) = ci then begin
                sub.(!k) <- col.(t);
                spos.(!k) <- pos.(t);
                incr k
              end
            done;
            if !k > 0 then exec kids.(ci) sub spos (b + 1) !k
          done;
          let k = ref 0 in
          for t = 0 to m - 1 do
            if choice.(leaf_of.(pos.(t))).(d) = last then begin
              if !k < t then begin
                col.(!k) <- col.(t);
                pos.(!k) <- pos.(t)
              end;
              incr k
            end
          done;
          if !k > 0 then exec kids.(last) col pos b !k
        end
      end
  in
  (* Leave in vectors: one bucket per exit, in arrival order, dispatched
     in order of each exit's first packet. The dominant bucket is
     compacted into the incoming array (handed on whole when every
     packet takes it); the others are copied out and the counts reset
     before anything is dispatched. *)
  let dispatch batch src exits n =
    let nb = Array.length batch in
    let nused = ref 0 in
    for t = 0 to n - 1 do
      let e = exits.(t) in
      if e >= 0 then begin
        if ecount.(e) = 0 then begin
          used.(!nused) <- e;
          incr nused
        end;
        ecount.(e) <- ecount.(e) + 1
      end
    done;
    if !nused = 1 then begin
      let e = used.(0) in
      let c = ecount.(e) in
      ecount.(e) <- 0;
      if c = nb && src == batch then exit_vec.(e) batch
      else begin
        let w = ref 0 in
        for t = 0 to n - 1 do
          if exits.(t) = e then begin
            let p = src.(t) in
            if batch.(!w) != p then batch.(!w) <- p;
            incr w
          end
        done;
        exit_vec.(e) (if c = nb then batch else Array.sub batch 0 c)
      end
    end
    else if !nused > 1 then begin
      let dom = ref used.(0) in
      for u = 1 to !nused - 1 do
        if ecount.(used.(u)) > ecount.(!dom) then dom := used.(u)
      done;
      let dom = !dom in
      let ids = Array.sub used 0 !nused in
      let bufs = Array.make !nused [||] in
      for u = 0 to !nused - 1 do
        let e = ids.(u) in
        slot.(e) <- u;
        if e <> dom then bufs.(u) <- Array.make ecount.(e) dummy;
        ecount.(e) <- 0
      done;
      let w = ref 0 in
      for t = 0 to n - 1 do
        let e = exits.(t) in
        if e = dom then begin
          let p = src.(t) in
          if batch.(!w) != p then batch.(!w) <- p;
          incr w
        end
        else if e >= 0 then begin
          bufs.(slot.(e)).(ecount.(e)) <- src.(t);
          ecount.(e) <- ecount.(e) + 1
        end
      done;
      for u = 0 to !nused - 1 do
        ecount.(ids.(u)) <- 0
      done;
      bufs.(slot.(dom)) <- Array.sub batch 0 !w;
      for u = 0 to !nused - 1 do
        exit_vec.(ids.(u)) bufs.(u)
      done
    end
  in
  let vector batch =
    let nb = Array.length batch in
    region.rg_packets <- region.rg_packets + nb;
    if nb > !cap then grow nb;
    incr gen;
    let g = !gen in
    let leaf_of = !leaf_of and exit_of = !exit_of and pos0 = poss.(0) in
    for k = 0 to nb - 1 do
      let l = Tree.packed_output (Tree.classify_packed diagram batch.(k)) in
      leaf_of.(k) <- l;
      exit_of.(k) <- -1;
      pos0.(k) <- k;
      let id = ends.(l) in
      if tstamp.(id) = g then tcount.(id) <- tcount.(id) + 1
      else begin
        tstamp.(id) <- g;
        tcount.(id) <- 1
      end
    done;
    fast_m := -1;
    slow := false;
    if nb > 0 then exec root batch pos0 0 nb;
    if !slow then dispatch batch !term_pkt exit_of nb
    else if !fast_m > 0 then dispatch batch batch !exit_tmp !fast_m
  in
  { fu_scalar = scalar; fu_vector = vector; fu_region = region }
