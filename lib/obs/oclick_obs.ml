(* Per-element observability: counters, cost attribution, event trace.

   The paper explains every optimization win with per-element cycle
   tables (its per-element breakdowns of the IP router), so the
   evaluation layer must attribute cost element-by-element, not just in
   aggregate. This module holds the accumulators; the runtime reports
   into them through a wrapped {!Oclick_runtime.Hooks.t}, so the hot
   path pays nothing when observation is off (the driver keeps its plain
   hooks) and no per-packet allocation when it is on. *)

module Hooks = Oclick_runtime.Hooks
module Packet = Oclick_packet.Packet

(* ------------------------------------------------------------------ *)
(* Bounded event trace *)

module Trace = struct
  type kind = Push | Pull | Drop | Spawn

  type event = {
    ev_seq : int;  (* position in the run's full event stream *)
    ev_ns : int;
    ev_kind : kind;
    ev_src_idx : int;
    ev_src_port : int;
    ev_dst_idx : int;
    ev_dst_port : int;
    ev_packet : int;
    ev_reason : string;
  }

  (* A ring: the last [capacity] events, oldest overwritten first. *)
  type t = {
    cap : int;
    buf : event array;
    mutable next : int;  (* slot for the next event *)
    mutable seen : int;  (* events ever recorded *)
  }

  let none =
    {
      ev_seq = 0;
      ev_ns = 0;
      ev_kind = Push;
      ev_src_idx = -1;
      ev_src_port = -1;
      ev_dst_idx = -1;
      ev_dst_port = -1;
      ev_packet = -1;
      ev_reason = "";
    }

  let create cap =
    if cap <= 0 then invalid_arg "Obs.Trace.create";
    { cap; buf = Array.make cap none; next = 0; seen = 0 }

  let capacity t = t.cap
  let seen t = t.seen
  let length t = min t.seen t.cap

  let record t ~ns ~kind ~src_idx ~src_port ~dst_idx ~dst_port ~packet
      ~reason =
    t.buf.(t.next) <-
      {
        ev_seq = t.seen;
        ev_ns = ns;
        ev_kind = kind;
        ev_src_idx = src_idx;
        ev_src_port = src_port;
        ev_dst_idx = dst_idx;
        ev_dst_port = dst_port;
        ev_packet = packet;
        ev_reason = reason;
      };
    t.next <- (t.next + 1) mod t.cap;
    t.seen <- t.seen + 1

  let events t =
    let n = length t in
    let first = (t.next - n + t.cap) mod t.cap in
    List.init n (fun i -> t.buf.((first + i) mod t.cap))

  let reset t =
    t.next <- 0;
    t.seen <- 0

  let kind_name = function
    | Push -> "push"
    | Pull -> "pull"
    | Drop -> "drop"
    | Spawn -> "spawn"
end

(* ------------------------------------------------------------------ *)
(* Per-element accumulators *)

(* What belongs to one element rather than to a connection: its name
   and class, drops by reason, spawns, pool recycles and the two cost
   columns. Packets and invocations are counted per connection, in the
   cells below, and folded into the per-element view on demand. *)
type elem = {
  mutable el_name : string;
  mutable el_class : string;
  el_drop_reasons : (string, int ref) Hashtbl.t;
  mutable el_drops : int;
  mutable el_spawns : int;
  mutable el_recycles : int;
  mutable el_sim_ns : int;
  mutable el_wall_ns : int;
}

let fresh_elem () =
  {
    el_name = "";
    el_class = "";
    el_drop_reasons = Hashtbl.create 4;
    el_drops = 0;
    el_spawns = 0;
    el_recycles = 0;
    el_sim_ns = 0;
    el_wall_ns = 0;
  }

(* Connection cells. A transfer report names the element that initiated
   it and one of that element's ports: a push its output port, a pull
   its input port. A configuration uses each such port in one
   connection only (push outputs and pull inputs are single-use), so
   the peer at the other end is fixed; it is learned the first time the
   port reports. [cells.(idx)] holds [cell_width] ints per port of
   element [idx]: a push slot, then a pull slot, each holding packets
   moved, scalar invocations, batched invocations and the learned peer
   ([-1] until learned). *)
let slot_width = 4
let cell_width = 2 * slot_width
let c_packets = 0
let c_scalar = 1
let c_batched = 2
let c_peer = 3

(* A learned peer, packed: element index and port. *)
let port_bits = 24
let peer_code idx port = (idx lsl port_bits) lor port
let peer_idx code = code lsr port_bits
let peer_port code = code land ((1 lsl port_bits) - 1)

type t = {
  mutable elems : elem array;  (* grow-on-demand, indexed by element idx *)
  mutable cells : int array array;  (* indexed by initiating element idx *)
  trace : Trace.t option;
  count_recycles : bool;
  (* Sampled wall clock: see [mean_stride]. *)
  mutable w_cur : int;  (* element charged for the open interval, or -1 *)
  mutable w_start : int;  (* clock reading that opened it *)
  mutable w_left : int;  (* events until the next clock read *)
  mutable w_rng : int;  (* LCG state drawing the gaps between intervals *)
}

(* Wall-clock attribution samples an event-delta scheme: the time
   between two consecutive hook events belongs to the element whose
   code runs in between (a transfer's destination, a drop's dropper).
   Only one such interval in [mean_stride], on average, is timed (two
   clock reads), and it is charged [mean_stride] times its length. The
   gaps between timed intervals are drawn uniformly from
   [2, 2 * mean_stride - 2] by a seeded LCG, so a path that repeats
   with a fixed period is not always timed at the same phase. An
   interval that spans a return to the scheduler is charged to the last
   element that ran before it. *)
let mean_stride = 64
let sample_seed = 0x2545F491

let next_gap t =
  t.w_rng <- ((t.w_rng * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
  2 + ((t.w_rng lsr 17) mod ((2 * mean_stride) - 3))

let restart_sampling t =
  t.w_cur <- -1;
  t.w_rng <- sample_seed;
  t.w_left <- next_gap t

let create ?trace ?(recycles = false) () =
  let t =
    {
      elems = [||];
      cells = [||];
      trace = Option.map Trace.create trace;
      count_recycles = recycles;
      w_cur = -1;
      w_start = 0;
      w_left = 0;
      w_rng = 0;
    }
  in
  restart_sampling t;
  t

let trace t = t.trace

let elem t idx =
  if idx < 0 then invalid_arg "Obs.elem";
  let n = Array.length t.elems in
  if idx >= n then
    t.elems <-
      Array.init
        (max (idx + 1) (max 8 (2 * n)))
        (fun i -> if i < n then t.elems.(i) else fresh_elem ());
  t.elems.(idx)

(* Element [idx]'s cells, grown to cover [port]. *)
let cells_for t idx port =
  let n = Array.length t.cells in
  if idx >= n then
    t.cells <-
      Array.init
        (max (idx + 1) (max 8 (2 * n)))
        (fun i -> if i < n then t.cells.(i) else [||]);
  let a = t.cells.(idx) in
  if Array.length a > port * cell_width then a
  else begin
    let grown =
      Array.init ((port + 1) * cell_width) (fun i ->
          if i < Array.length a then a.(i)
          else if i mod slot_width = c_peer then -1
          else 0)
    in
    t.cells.(idx) <- grown;
    grown
  end

let set_meta t ~idx ~name ~cls =
  let e = elem t idx in
  e.el_name <- name;
  e.el_class <- cls

let reset t =
  Array.iter
    (fun e ->
      Hashtbl.reset e.el_drop_reasons;
      e.el_drops <- 0;
      e.el_spawns <- 0;
      e.el_recycles <- 0;
      e.el_sim_ns <- 0;
      e.el_wall_ns <- 0)
    t.elems;
  Array.iter
    (fun a ->
      Array.iteri (fun i _ -> if i mod slot_width <> c_peer then a.(i) <- 0) a)
    t.cells;
  Option.iter Trace.reset t.trace;
  restart_sampling t

let clear t =
  t.elems <- [||];
  t.cells <- [||];
  Option.iter Trace.reset t.trace;
  restart_sampling t

let charge_sim_ns t ~idx ns =
  if idx >= 0 then (elem t idx).el_sim_ns <- (elem t idx).el_sim_ns + ns

let learn_class e cls = if String.equal e.el_class "" then e.el_class <- cls

(* The first report over a port: learn its peer, give both ends a class
   if they have none yet, then count. Every report over the port names
   the same two elements, so this is the first report that could have
   named either of them through it. *)
let learn t (tr : Hooks.transfer) n inv =
  let src = tr.Hooks.tr_src_idx and port = tr.Hooks.tr_src_port in
  let dst = tr.Hooks.tr_dst_idx and dst_port = tr.Hooks.tr_dst_port in
  let limit = 1 lsl port_bits in
  if src < 0 || dst < 0 || port < 0 || port >= limit || dst_port < 0
     || dst_port >= limit
  then invalid_arg "Obs: transfer endpoint out of range";
  learn_class (elem t src) tr.Hooks.tr_src_class;
  learn_class (elem t dst) tr.Hooks.tr_dst_class;
  let a = cells_for t src port in
  let k = (port * cell_width) + if tr.Hooks.tr_pull then slot_width else 0 in
  a.(k + c_peer) <- peer_code dst dst_port;
  a.(k + c_packets) <- a.(k + c_packets) + n;
  a.(k + inv) <- a.(k + inv) + 1

(* One report of [n] packets over [tr]'s connection; [inv] is the
   invocation counter it bumps ([c_scalar] or [c_batched]). Once the
   port is learned this is two increments. *)
let[@inline] count t (tr : Hooks.transfer) n inv =
  let src = tr.Hooks.tr_src_idx and cells = t.cells in
  if src >= 0 && src < Array.length cells then begin
    let a = cells.(src) in
    let k =
      (tr.Hooks.tr_src_port * cell_width)
      + if tr.Hooks.tr_pull then slot_width else 0
    in
    if k >= 0 && k < Array.length a && a.(k + c_peer) >= 0 then begin
      a.(k + c_packets) <- a.(k + c_packets) + n;
      a.(k + inv) <- a.(k + inv) + 1
    end
    else learn t tr n inv
  end
  else learn t tr n inv

let note_drop t ~idx ~cls ~reason =
  let e = elem t idx in
  learn_class e cls;
  e.el_drops <- e.el_drops + 1;
  if t.count_recycles then e.el_recycles <- e.el_recycles + 1;
  (* [find], not [find_opt]: no [Some] is boxed per drop. *)
  match Hashtbl.find e.el_drop_reasons reason with
  | r -> incr r
  | exception Not_found -> Hashtbl.replace e.el_drop_reasons reason (ref 1)

let note_spawn t ~idx ~cls =
  let e = elem t idx in
  learn_class e cls;
  e.el_spawns <- e.el_spawns + 1

let sample t now next =
  let v = now () in
  if t.w_cur >= 0 then begin
    let d = v - t.w_start in
    if d > 0 then begin
      let e = elem t t.w_cur in
      e.el_wall_ns <- e.el_wall_ns + (d * mean_stride)
    end;
    t.w_cur <- -1;
    t.w_left <- next_gap t - 1
  end
  else begin
    t.w_start <- v;
    t.w_cur <- next;
    t.w_left <- 1
  end

(* One event, after which element [next] runs: usually a decrement. *)
let[@inline] tick t now next =
  let left = t.w_left - 1 in
  if left > 0 then t.w_left <- left else sample t now next

(* Every learned slot: [f idx port pull peer packets scalar batched]. *)
let iter_cells t f =
  Array.iteri
    (fun idx a ->
      for s = 0 to (Array.length a / slot_width) - 1 do
        let b = s * slot_width in
        let peer = a.(b + c_peer) in
        if peer >= 0 then
          f idx (s / 2) (s land 1 = 1) peer a.(b + c_packets)
            a.(b + c_scalar) a.(b + c_batched)
      done)
    t.cells

(* Fold one accumulator into another — the deterministic merge the
   multi-domain runner uses to combine per-domain ledgers into a single
   report. Element counters add and metadata fills empty slots; the
   source's cells add into the destination's, which learns any peer it
   has not seen; trace events append in the source's order (call once
   per shard, in shard order, for a deterministic combined stream). The
   source is left untouched. *)
let merge_into ~src ~dst =
  Array.iteri
    (fun idx (se : elem) ->
      let touched =
        (not (String.equal se.el_name "")) || not (String.equal se.el_class "")
        || se.el_drops <> 0 || se.el_spawns <> 0 || se.el_recycles <> 0
        || se.el_sim_ns <> 0 || se.el_wall_ns <> 0
      in
      if touched then begin
        let de = elem dst idx in
        if String.equal de.el_name "" then de.el_name <- se.el_name;
        learn_class de se.el_class;
        Hashtbl.iter
          (fun reason r ->
            match Hashtbl.find_opt de.el_drop_reasons reason with
            | Some tot -> tot := !tot + !r
            | None -> Hashtbl.replace de.el_drop_reasons reason (ref !r))
          se.el_drop_reasons;
        de.el_drops <- de.el_drops + se.el_drops;
        de.el_spawns <- de.el_spawns + se.el_spawns;
        de.el_recycles <- de.el_recycles + se.el_recycles;
        de.el_sim_ns <- de.el_sim_ns + se.el_sim_ns;
        de.el_wall_ns <- de.el_wall_ns + se.el_wall_ns
      end)
    src.elems;
  iter_cells src (fun idx port pull peer packets scalar batched ->
      ignore (elem dst idx);
      ignore (elem dst (peer_idx peer));
      let a = cells_for dst idx port in
      let b = (port * cell_width) + if pull then slot_width else 0 in
      if a.(b + c_peer) < 0 then a.(b + c_peer) <- peer;
      a.(b + c_packets) <- a.(b + c_packets) + packets;
      a.(b + c_scalar) <- a.(b + c_scalar) + scalar;
      a.(b + c_batched) <- a.(b + c_batched) + batched);
  match (dst.trace, src.trace) with
  | Some dt, Some st ->
      List.iter
        (fun (ev : Trace.event) ->
          Trace.record dt ~ns:ev.Trace.ev_ns ~kind:ev.Trace.ev_kind
            ~src_idx:ev.Trace.ev_src_idx ~src_port:ev.Trace.ev_src_port
            ~dst_idx:ev.Trace.ev_dst_idx ~dst_port:ev.Trace.ev_dst_port
            ~packet:ev.Trace.ev_packet ~reason:ev.Trace.ev_reason)
        (Trace.events st)
  | _ -> ()

let trace_transfer ring now (tr : Hooks.transfer) p =
  Trace.record ring ~ns:(now ())
    ~kind:(if tr.Hooks.tr_pull then Trace.Pull else Trace.Push)
    ~src_idx:tr.Hooks.tr_src_idx ~src_port:tr.Hooks.tr_src_port
    ~dst_idx:tr.Hooks.tr_dst_idx ~dst_port:tr.Hooks.tr_dst_port
    ~packet:(Packet.id p) ~reason:""

(* The closures are specialized when they are built: the counting body
   with or without the clock tick, a trace record only when there is a
   ring, and a call into [base] only where [base] has a hook. [on_work]
   passes through untouched, so an observed router keeps its lean
   charge sites and compiled plans whenever [base] has none. *)
let hooks ?(now = fun () -> 0) ?(wall = false) t (base : Hooks.t) : Hooks.t =
  let on_transfer =
    if wall then fun tr _ ->
      count t tr 1 c_scalar;
      tick t now tr.Hooks.tr_dst_idx
    else fun tr _ -> count t tr 1 c_scalar
  in
  let on_transfer_batch =
    if wall then fun tr _ n ->
      count t tr n c_batched;
      tick t now tr.Hooks.tr_dst_idx
    else fun tr _ n -> count t tr n c_batched
  in
  let on_drop =
    if wall then fun ~idx ~cls ~reason _ ->
      note_drop t ~idx ~cls ~reason;
      tick t now idx
    else fun ~idx ~cls ~reason _ -> note_drop t ~idx ~cls ~reason
  in
  let on_spawn ~idx ~cls _ = note_spawn t ~idx ~cls in
  let on_transfer, on_transfer_batch, on_drop, on_spawn =
    match t.trace with
    | None -> (on_transfer, on_transfer_batch, on_drop, on_spawn)
    | Some ring ->
        let event ~kind ~idx ~reason p =
          Trace.record ring ~ns:(now ()) ~kind ~src_idx:idx ~src_port:(-1)
            ~dst_idx:(-1) ~dst_port:(-1) ~packet:(Packet.id p) ~reason
        in
        ( (fun tr p ->
            on_transfer tr p;
            trace_transfer ring now tr p),
          (fun tr batch n ->
            on_transfer_batch tr batch n;
            for i = 0 to n - 1 do
              trace_transfer ring now tr batch.(i)
            done),
          (fun ~idx ~cls ~reason p ->
            on_drop ~idx ~cls ~reason p;
            event ~kind:Trace.Drop ~idx ~reason p),
          fun ~idx ~cls p ->
            on_spawn ~idx ~cls p;
            event ~kind:Trace.Spawn ~idx ~reason:"" p )
  in
  let null = Hooks.null in
  {
    Hooks.on_transfer =
      (let b = base.Hooks.on_transfer in
       if b == null.Hooks.on_transfer then on_transfer
       else fun tr p ->
         b tr p;
         on_transfer tr p);
    Hooks.on_transfer_batch =
      (let b = base.Hooks.on_transfer_batch in
       if b == null.Hooks.on_transfer_batch then on_transfer_batch
       else fun tr batch n ->
         b tr batch n;
         on_transfer_batch tr batch n);
    Hooks.on_work = base.Hooks.on_work;
    Hooks.on_drop =
      (let b = base.Hooks.on_drop in
       if b == null.Hooks.on_drop then on_drop
       else fun ~idx ~cls ~reason p ->
         b ~idx ~cls ~reason p;
         on_drop ~idx ~cls ~reason p);
    Hooks.on_spawn =
      (let b = base.Hooks.on_spawn in
       if b == null.Hooks.on_spawn then on_spawn
       else fun ~idx ~cls p ->
         b ~idx ~cls p;
         on_spawn ~idx ~cls p);
    Hooks.on_fault = base.Hooks.on_fault;
    Hooks.on_warn = base.Hooks.on_warn;
  }

(* ------------------------------------------------------------------ *)
(* Immutable snapshots (for tests and rendering) *)

type stats = {
  s_idx : int;
  s_name : string;
  s_class : string;
  s_pushes : int;
  s_pulls : int;
  s_batches : int;
  s_in : int;
  s_out : int;
  s_in_ports : (int * int) list;
  s_out_ports : (int * int) list;
  s_drop_reasons : (string * int) list;
  s_drops : int;
  s_spawns : int;
  s_recycles : int;
  s_sim_ns : int;
  s_wall_ns : int;
}

(* The per-element flow view, folded from the cells: packets in and out
   (total and per port) and the invocations each element serviced — a
   push invokes the consumer, a pull the producer, and a batched
   transfer is one invocation standing for all its packets. *)
type flow = {
  mutable f_pushes : int;
  mutable f_pulls : int;
  mutable f_batches : int;
  mutable f_in : int;
  mutable f_out : int;
  mutable f_in_ports : int array;
  mutable f_out_ports : int array;
}

let bump ports port n =
  let ports =
    if port < Array.length ports then ports
    else
      Array.init (port + 1) (fun i ->
          if i < Array.length ports then ports.(i) else 0)
  in
  ports.(port) <- ports.(port) + n;
  ports

let flows t =
  let f =
    Array.init (Array.length t.elems) (fun _ ->
        {
          f_pushes = 0;
          f_pulls = 0;
          f_batches = 0;
          f_in = 0;
          f_out = 0;
          f_in_ports = [||];
          f_out_ports = [||];
        })
  in
  iter_cells t (fun idx port pull peer packets scalar batched ->
      let producer, pport, consumer, cport =
        if pull then (peer_idx peer, peer_port peer, idx, port)
        else (idx, port, peer_idx peer, peer_port peer)
      in
      let pf = f.(producer) and cf = f.(consumer) in
      pf.f_out <- pf.f_out + packets;
      pf.f_out_ports <- bump pf.f_out_ports pport packets;
      cf.f_in <- cf.f_in + packets;
      cf.f_in_ports <- bump cf.f_in_ports cport packets;
      let inv = if pull then pf else cf in
      if pull then inv.f_pulls <- inv.f_pulls + scalar
      else inv.f_pushes <- inv.f_pushes + scalar;
      inv.f_batches <- inv.f_batches + batched);
  f

let ports_list arr =
  let acc = ref [] in
  Array.iteri (fun i n -> if n > 0 then acc := (i, n) :: !acc) arr;
  List.rev !acc

let snapshot t =
  let flows = flows t in
  let acc = ref [] in
  Array.iteri
    (fun idx e ->
      let f = flows.(idx) in
      if
        (not (String.equal e.el_name "")) || (not (String.equal e.el_class ""))
        || f.f_in > 0 || f.f_out > 0 || e.el_drops > 0 || e.el_spawns > 0
        || e.el_sim_ns > 0 || e.el_wall_ns > 0
      then
        acc :=
          {
            s_idx = idx;
            s_name = (if String.equal e.el_name "" then
                        Printf.sprintf "e%d" idx
                      else e.el_name);
            s_class = e.el_class;
            s_pushes = f.f_pushes;
            s_pulls = f.f_pulls;
            s_batches = f.f_batches;
            s_in = f.f_in;
            s_out = f.f_out;
            s_in_ports = ports_list f.f_in_ports;
            s_out_ports = ports_list f.f_out_ports;
            s_drop_reasons =
              Hashtbl.fold (fun k r l -> (k, !r) :: l) e.el_drop_reasons []
              |> List.sort compare;
            s_drops = e.el_drops;
            s_spawns = e.el_spawns;
            s_recycles = e.el_recycles;
            s_sim_ns = e.el_sim_ns;
            s_wall_ns = e.el_wall_ns;
          }
          :: !acc)
    t.elems;
  List.rev !acc

let total_sim_ns t =
  Array.fold_left (fun a e -> a + e.el_sim_ns) 0 t.elems

let total_wall_ns t =
  Array.fold_left (fun a e -> a + e.el_wall_ns) 0 t.elems

let total_drops t = Array.fold_left (fun a e -> a + e.el_drops) 0 t.elems

(* Measured per-element costs as LPT weights for Partition.compute:
   indexed by element index, floored at 1 so an element the profiling
   run never touched still counts as present. *)
let cost_weights ?(wall = false) t =
  let n = Array.length t.elems in
  let a = Array.make (max n 1) 1 in
  Array.iteri
    (fun idx e ->
      let c = if wall then e.el_wall_ns else e.el_sim_ns in
      a.(idx) <- max 1 c)
    t.elems;
  a

let drop_reasons t =
  let acc : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      Hashtbl.iter
        (fun k r ->
          match Hashtbl.find_opt acc k with
          | Some tot -> tot := !tot + !r
          | None -> Hashtbl.replace acc k (ref !r))
        e.el_drop_reasons)
    t.elems;
  Hashtbl.fold (fun k r l -> (k, !r) :: l) acc [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* A small self-contained JSON layer (printer + parser), enough for the
   report renderer and for schema validation in tests. *)

module Json = struct
  type value =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of value list
    | Obj of (string * value) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec print b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else begin
          (* shortest representation that parses back to the same
             float, so costs survive a print/parse round trip *)
          let s = Printf.sprintf "%.15g" f in
          if float_of_string s = f then Buffer.add_string b s
          else Buffer.add_string b (Printf.sprintf "%.17g" f)
        end
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            print b v)
          vs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\": ";
            print b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    print b v;
    Buffer.contents b

  exception Parse of string

  let of_string s =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let fail msg = raise (Parse (Printf.sprintf "%s at %d" msg !pos)) in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      if !pos + String.length word <= len
         && String.equal (String.sub s !pos (String.length word)) word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "bad escape";
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 'r' -> Buffer.add_char b '\r'
             | 't' -> Buffer.add_char b '\t'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
                 if !pos + 4 >= len then fail "bad \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with _ -> fail "bad \\u escape"
                 in
                 (* ASCII-only escapes are all this layer emits *)
                 if code < 0x80 then Buffer.add_char b (Char.chr code)
                 else Buffer.add_string b (Printf.sprintf "\\u%s" hex);
                 pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < len && is_num s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some n -> Int n
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            List (items [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> len then Error (Printf.sprintf "trailing input at %d" !pos)
        else Ok v
    | exception Parse msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Rendering: the paper-style per-element breakdown *)

module Report = struct
  type mode =
    | Sim of float  (** CPU MHz — cost column is simulated cycles *)
    | Wall  (** cost column is wall-clock nanoseconds *)

  let cost_of mode s =
    match mode with
    | Sim mhz -> float_of_int s.s_sim_ns *. mhz /. 1000.0
    | Wall -> float_of_int s.s_wall_ns

  let sorted mode t =
    snapshot t
    |> List.sort (fun a b ->
           match compare (cost_of mode b) (cost_of mode a) with
           | 0 -> compare a.s_idx b.s_idx
           | c -> c)

  (* Truncation never drops cost: rows past the cutoff collapse into a
     synthetic "(other)" aggregate (index -1), so totals and validate's
     cost-sum invariant hold for any [top]. *)
  let truncate top rows =
    match top with
    | None -> rows
    | Some n when n <= 0 || List.length rows <= n -> rows
    | Some n ->
        let rec split i = function
          | r :: rest when i < n ->
              let keep, drop = split (i + 1) rest in
              (r :: keep, drop)
          | rest -> ([], rest)
        in
        let keep, rest = split 0 rows in
        let merge_reasons acc rs =
          List.fold_left
            (fun acc (k, v) ->
              match List.assoc_opt k acc with
              | Some v0 -> (k, v0 + v) :: List.remove_assoc k acc
              | None -> (k, v) :: acc)
            acc rs
        in
        let other =
          List.fold_left
            (fun a s ->
              {
                a with
                s_pushes = a.s_pushes + s.s_pushes;
                s_pulls = a.s_pulls + s.s_pulls;
                s_batches = a.s_batches + s.s_batches;
                s_in = a.s_in + s.s_in;
                s_out = a.s_out + s.s_out;
                s_drop_reasons =
                  merge_reasons a.s_drop_reasons s.s_drop_reasons;
                s_drops = a.s_drops + s.s_drops;
                s_spawns = a.s_spawns + s.s_spawns;
                s_recycles = a.s_recycles + s.s_recycles;
                s_sim_ns = a.s_sim_ns + s.s_sim_ns;
                s_wall_ns = a.s_wall_ns + s.s_wall_ns;
              })
            {
              s_idx = -1;
              s_name = Printf.sprintf "(other: %d)" (List.length rest);
              s_class = "-";
              s_pushes = 0;
              s_pulls = 0;
              s_batches = 0;
              s_in = 0;
              s_out = 0;
              s_in_ports = [];
              s_out_ports = [];
              s_drop_reasons = [];
              s_drops = 0;
              s_spawns = 0;
              s_recycles = 0;
              s_sim_ns = 0;
              s_wall_ns = 0;
            }
            rest
        in
        keep
        @ [ { other with s_drop_reasons = List.sort compare other.s_drop_reasons } ]

  let table ?top mode t =
    let rows = truncate top (sorted mode t) in
    let total = List.fold_left (fun a s -> a +. cost_of mode s) 0.0 rows in
    let t_in = List.fold_left (fun a s -> a + s.s_in) 0 rows in
    let t_out = List.fold_left (fun a s -> a + s.s_out) 0 rows in
    let t_drops = List.fold_left (fun a s -> a + s.s_drops) 0 rows in
    let cost_hdr = match mode with Sim _ -> "cycles" | Wall -> "wall ns" in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%-22s %-18s %10s %10s %8s %12s %10s %7s\n" "element"
         "class" "in" "out" "drops" cost_hdr "cost/pkt" "%");
    List.iter
      (fun s ->
        let c = cost_of mode s in
        let per =
          let n = max s.s_in s.s_out in
          if n = 0 then 0.0 else c /. float_of_int n
        in
        let pct = if total > 0.0 then 100.0 *. c /. total else 0.0 in
        Buffer.add_string b
          (Printf.sprintf "%-22s %-18s %10d %10d %8d %12.0f %10.1f %6.1f%%\n"
             s.s_name s.s_class s.s_in s.s_out s.s_drops c per pct))
      rows;
    Buffer.add_string b
      (Printf.sprintf "%-22s %-18s %10d %10d %8d %12.0f %10s %6.1f%%\n"
         "total" "" t_in t_out t_drops total "" 100.0);
    Buffer.contents b

  let json ?top mode t =
    let rows = truncate top (sorted mode t) in
    let total = List.fold_left (fun a s -> a +. cost_of mode s) 0.0 rows in
    let elements =
      List.map
        (fun s ->
          let c = cost_of mode s in
          let pct = if total > 0.0 then 100.0 *. c /. total else 0.0 in
          Json.Obj
            [
              ("index", Json.Int s.s_idx);
              ("name", Json.String s.s_name);
              ("class", Json.String s.s_class);
              ("in", Json.Int s.s_in);
              ("out", Json.Int s.s_out);
              ("pushes", Json.Int s.s_pushes);
              ("pulls", Json.Int s.s_pulls);
              ("batches", Json.Int s.s_batches);
              ("spawns", Json.Int s.s_spawns);
              ("drops", Json.Int s.s_drops);
              ( "drop_reasons",
                Json.Obj
                  (List.map (fun (k, n) -> (k, Json.Int n)) s.s_drop_reasons)
              );
              ("ns", Json.Int (match mode with
                               | Sim _ -> s.s_sim_ns
                               | Wall -> s.s_wall_ns));
              ("cost", Json.Float c);
              ("percent", Json.Float pct);
            ])
        rows
    in
    Json.Obj
      [
        ( "cost_unit",
          Json.String (match mode with Sim _ -> "cycles" | Wall -> "ns") );
        ( "total_ns",
          Json.Int
            (match mode with
            | Sim _ -> total_sim_ns t
            | Wall -> total_wall_ns t) );
        ("total_cost", Json.Float total);
        ("elements", Json.List elements);
      ]

  (* Schema check for the JSON emitted above (and wrapped by
     oclick-report): presence and types of every required field, and
     per-element cost summing to the stated total. *)
  let validate (v : Json.value) : (unit, string) result =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let int_field o k =
      match Json.member k o with
      | Some (Json.Int _) -> Ok ()
      | _ -> err "missing or non-int field %S" k
    in
    let num_field o k =
      match Json.member k o with
      | Some (Json.Int _ | Json.Float _) -> Ok ()
      | _ -> err "missing or non-number field %S" k
    in
    let str_field o k =
      match Json.member k o with
      | Some (Json.String _) -> Ok ()
      | _ -> err "missing or non-string field %S" k
    in
    let ( >>= ) r f = Result.bind r (fun () -> f ()) in
    let check_element e =
      str_field e "name" >>= fun () ->
      str_field e "class" >>= fun () ->
      int_field e "index" >>= fun () ->
      int_field e "in" >>= fun () ->
      int_field e "out" >>= fun () ->
      int_field e "drops" >>= fun () ->
      int_field e "ns" >>= fun () ->
      num_field e "cost" >>= fun () ->
      num_field e "percent" >>= fun () ->
      match Json.member "drop_reasons" e with
      | Some (Json.Obj _) -> Ok ()
      | _ -> err "missing drop_reasons object"
    in
    str_field v "cost_unit" >>= fun () ->
    int_field v "total_ns" >>= fun () ->
    num_field v "total_cost" >>= fun () ->
    match Json.member "elements" v with
    | Some (Json.List es) ->
        let rec all = function
          | [] -> Ok ()
          | e :: rest -> Result.bind (check_element e) (fun () -> all rest)
        in
        Result.bind (all es) (fun () ->
            let num = function
              | Some (Json.Float f) -> f
              | Some (Json.Int n) -> float_of_int n
              | _ -> nan
            in
            let total = num (Json.member "total_cost" v) in
            let sum =
              List.fold_left
                (fun a e -> a +. num (Json.member "cost" e))
                0.0 es
            in
            if Float.abs (sum -. total) > 0.5 +. (1e-9 *. Float.abs total)
            then
              err "element costs sum to %.1f but total_cost is %.1f" sum
                total
            else Ok ())
    | _ -> err "missing elements array"
end
