type init_ctx = {
  ic_graph : Oclick_graph.Router.t;
  ic_element : int -> t;
  ic_find : string -> t option;
  ic_device : string -> Netdevice.t option;
  ic_index : int;
}

and t = <
  name : string;
  class_name : string;
  port_count : string;
  processing : string;
  flow_code : string;
  code_class : string;
  set_code_class : string -> unit;
  direct_dispatch : bool;
  set_direct_dispatch : bool -> unit;
  configure : string -> (unit, string) result;
  initialize : init_ctx -> (unit, string) result;
  index : int;
  set_index : int -> unit;
  set_hooks : Hooks.t -> unit;
  lean_work : bool;
  set_nports : inputs:int -> outputs:int -> unit;
  ninputs : int;
  noutputs : int;
  connect_output : int -> t -> int -> unit;
  connect_input : int -> t -> int -> unit;
  link : int -> link option;
  set_callee :
    int ->
    (Oclick_packet.Packet.t -> unit) option ->
    (Oclick_packet.Packet.t array -> unit) option ->
    (Oclick_packet.Packet.t -> unit) * (Oclick_packet.Packet.t array -> unit);
  push : int -> Oclick_packet.Packet.t -> unit;
  pull : int -> Oclick_packet.Packet.t option;
  push_batch : int -> Oclick_packet.Packet.t array -> unit;
  pull_batch : int -> Oclick_packet.Packet.t array -> int;
  output : int -> Oclick_packet.Packet.t -> unit;
  input_pull : int -> Oclick_packet.Packet.t option;
  batch_size : int;
  set_batch_size : int -> unit;
  set_pool : Oclick_packet.Packet.Pool.t option -> unit;
  region_sem : Region.sem option;
  degrade_cells : bool ref * int ref;
  wants_task : bool;
  run_task : bool;
  stats : (string * int) list;
  read_handler : string -> string option;
  write_handler : string -> string -> (unit, string) result;
  is_quarantined : bool;
  fault_count : int;
  set_quarantine_threshold : int -> unit;
  set_mangle : (Oclick_packet.Packet.t -> unit) option -> unit;
  set_clock : (unit -> int) -> unit;
  record_fault : string -> unit;
  drop : reason:string -> Oclick_packet.Packet.t -> unit >

and link = {
  ln_record : Hooks.transfer;
  ln_hooks : Hooks.t;
  ln_mangle : (Oclick_packet.Packet.t -> unit) option;
  ln_from : t;
  ln_to : t;
  ln_to_port : int;
}

module Tree = Oclick_classifier.Tree

(* Exceptions the degradation layer must never swallow. *)
let fatal = function
  | Out_of_memory | Stack_overflow | Sys.Break -> true
  | _ -> false

(* Verdict of a simple_action element's body. Both constructors are
   immediates, so keep/drop travels without boxing a [Packet.t option]
   per packet. *)
type verdict = V_keep | V_drop

(* Shared fill value for scratch batch arrays; never read before a real
   packet is written over it. *)
let placeholder = lazy (Oclick_packet.Packet.create 0)
let force_scratch_placeholder () = ignore (Lazy.force placeholder)

(* --- transfers ------------------------------------------------------------ *)

(* The transfer protocol, stated once for every datapath: run the
   mangler, check the callee element's quarantine flag, report the
   transfer, call, contain a fault, and clear the callee's
   consecutive-fault count. A refused packet is the caller's drop; a
   packet that dies inside the callee is the callee's, because the
   transfer into it was already reported. *)

let refuse (e : t) p = e#drop ~reason:"quarantined element" p

let fault (e : t) ex p =
  e#record_fault (Printexc.to_string ex);
  e#drop ~reason:"element fault" p

let fault_all (e : t) ex batch n =
  e#record_fault (Printexc.to_string ex);
  for i = 0 to n - 1 do
    e#drop ~reason:"element fault" batch.(i)
  done

let unwired (e : t) port =
  let reason = Printf.sprintf "unconnected output %d" port in
  let push p = e#drop ~reason p in
  (push, fun batch -> Array.iter push batch)

let push_port ln ~callee ~callee_batch =
  let src = ln.ln_from and dst = ln.ln_to and port = ln.ln_to_port in
  let record = ln.ln_record and mangle = ln.ln_mangle in
  let quarantined, faults = dst#degrade_cells in
  let on_transfer = ln.ln_hooks.Hooks.on_transfer in
  let on_transfer_batch = ln.ln_hooks.Hooks.on_transfer_batch in
  let lean_batch = on_transfer_batch == Hooks.null.Hooks.on_transfer_batch in
  (* One flat closure when nothing is reported: no hook test and no
     option match per packet. The interpreter's port sends [push]
     itself: a callee closure around the send costs one more indirect
     call per hop, 4-7% on an interpreted chain of 4-16 classifiers and
     7% of perfbench iprouter's interpreted Mpps. *)
  let deliver =
    match callee with
    | _ when on_transfer != Hooks.null.Hooks.on_transfer ->
        let call = Option.value callee ~default:(fun p -> dst#push port p) in
        fun p ->
          if !quarantined then refuse src p
          else begin
            on_transfer record p;
            match call p with
            | () -> faults := 0
            | exception e when not (fatal e) -> fault dst e p
          end
    | None -> (
        fun p ->
          if !quarantined then refuse src p
          else
            match dst#push port p with
            | () -> faults := 0
            | exception e when not (fatal e) -> fault dst e p)
    | Some call -> (
        fun p ->
          if !quarantined then refuse src p
          else
            match call p with
            | () -> faults := 0
            | exception e when not (fatal e) -> fault dst e p)
  in
  let push =
    match mangle with None -> deliver | Some m -> fun p -> m p; deliver p
  in
  let call_batch =
    Option.value callee_batch ~default:(fun batch -> dst#push_batch port batch)
  in
  (* A batch of one is a scalar transfer; a larger one pays one
     quarantine check, one report and one call. An exception escaping
     the callee's batch form leaves no telling which packets it
     consumed, so the whole batch is accounted as faulted. *)
  let push_batch batch =
    let n = Array.length batch in
    if n = 1 then push batch.(0)
    else if n > 0 then begin
      (match mangle with Some m -> Array.iter m batch | None -> ());
      if !quarantined then Array.iter (refuse src) batch
      else begin
        if not lean_batch then on_transfer_batch record batch n;
        match call_batch batch with
        | () -> faults := 0
        | exception e when not (fatal e) -> fault_all dst e batch n
      end
    end
  in
  (push, push_batch)

(* The pull twin: the callee is the upstream element's [pull]. Only a
   pull that moves a packet is reported: idle polling is part of the
   scheduler loop, not per-packet cost (the paper's cycle counters
   bracket packet-processing code). *)
let pull_port ln =
  let src = ln.ln_to and port = ln.ln_to_port and record = ln.ln_record in
  let quarantined, faults = src#degrade_cells in
  let on_transfer = ln.ln_hooks.Hooks.on_transfer in
  let on_transfer_batch = ln.ln_hooks.Hooks.on_transfer_batch in
  let lean = on_transfer == Hooks.null.Hooks.on_transfer in
  let lean_batch = on_transfer_batch == Hooks.null.Hooks.on_transfer_batch in
  let pull () =
    if !quarantined then None
    else
      match src#pull port with
      | Some p as r ->
          faults := 0;
          if not lean then on_transfer record p;
          r
      | None -> None
      | exception e when not (fatal e) ->
          src#record_fault (Printexc.to_string e);
          None
  in
  let pull_batch dst =
    if Array.length dst = 1 then (
      match pull () with
      | Some p ->
          dst.(0) <- p;
          1
      | None -> 0)
    else if !quarantined then 0
    else
      match src#pull_batch port dst with
      | 0 -> 0
      | n ->
          faults := 0;
          if not lean_batch then on_transfer_batch record dst n;
          n
      | exception e when not (fatal e) ->
          src#record_fault (Printexc.to_string e);
          0
  in
  (pull, pull_batch)

(* A hop the FDD crosses inside a region: the transfer's check and
   report, without the call. [reset] clears the callee's fault count
   here, when the callee runs no op of its own whose containment
   clears it. *)
let hop ln ~reset =
  let quarantined, faults = ln.ln_to#degrade_cells in
  let on_transfer = ln.ln_hooks.Hooks.on_transfer in
  let lean = on_transfer == Hooks.null.Hooks.on_transfer in
  fun p ->
    if !quarantined then (
      refuse ln.ln_from p;
      false)
    else begin
      if not lean then on_transfer ln.ln_record p;
      if reset then faults := 0;
      true
    end

(* The same hop for the first [m] packets of a column: one check and
   one report, as a batched transfer makes (a scalar one for a single
   packet). Answers the survivors. *)
let hop_col ln =
  let one = hop ln ~reset:true in
  let quarantined, faults = ln.ln_to#degrade_cells in
  let on_transfer_batch = ln.ln_hooks.Hooks.on_transfer_batch in
  let lean_batch = on_transfer_batch == Hooks.null.Hooks.on_transfer_batch in
  fun col m ->
    if m = 1 then Bool.to_int (one col.(0))
    else if !quarantined then begin
      for t = 0 to m - 1 do
        refuse ln.ln_from col.(t)
      done;
      0
    end
    else begin
      if not lean_batch then on_transfer_batch ln.ln_record col m;
      faults := 0;
      m
    end

let contain (e : t) ~faulted f =
  let _, faults = e#degrade_cells in
  fun p ->
    match f p with
    | r ->
        faults := 0;
        r
    | exception ex when not (fatal ex) ->
        fault e ex p;
        faulted

let contain_col (e : t) f =
  let _, faults = e#degrade_cells in
  fun col m ->
    match f col m with
    | () ->
        faults := 0;
        m
    | exception ex when not (fatal ex) ->
        fault_all e ex col m;
        0

class virtual base (name : string) =
  object (self)
    val mutable index = -1
    val mutable hooks = Hooks.null

    (* Leanness of the installed work hook, cached once in [set_hooks] so
       a charge site pays a single branch. *)
    val mutable lean_work = true

    (* Each connection keeps the record its transfers report, built when
       it is wired (every field is fixed by then), so a hooked transfer
       reports without allocating. *)
    val mutable out_targets : (t * int * Hooks.transfer) option array = [||]
    val mutable in_targets : (t * int * Hooks.transfer) option array = [||]

    (* The callees the graph compiler installed per output port, in
       place of the virtual send to the peer's [push]/[push_batch]. *)
    val mutable callees = [||]

    (* The ports: each connection's transfer closures, built by
       [push_port]/[pull_port] from what they capture and rebuilt when
       any of it changes. *)
    val mutable out_push : (Oclick_packet.Packet.t -> unit) array = [||]
    val mutable out_push_batch : (Oclick_packet.Packet.t array -> unit) array = [||]
    val mutable in_pull : (unit -> Oclick_packet.Packet.t option) array = [||]
    val mutable in_pull_batch : (Oclick_packet.Packet.t array -> int) array = [||]

    val mutable direct_dispatch = false
    val mutable code_class_override : string option = None
    val mutable quarantine_threshold = 8
    val mutable fault_count = 0

    (* Refs (not mutable fields) so compiled connection closures can read
       and clear them without a method dispatch per packet. *)
    val consecutive_faults = ref 0
    val quarantined = ref false
    val mutable mangle : (Oclick_packet.Packet.t -> unit) option = None

    (* Nanosecond time source for aging element state (Aged_table);
       installed by the driver. Default never advances, so state never
       ages unless a clock is provided. *)
    val mutable clock : unit -> int = fun () -> 0
    val mutable batch_size = 1
    val mutable pool : Oclick_packet.Packet.Pool.t option = None
    val mutable scratch_arr : Oclick_packet.Packet.t array = [||]

    (* The push path of an element with a sem, built from it on first use
       and dropped by [sem_changed] when something the bodies captured
       changes: the hooks' [lean_work], the ports, or configured state
       the sem snapshots. *)
    val mutable sem_push : (Oclick_packet.Packet.t -> unit) option = None

    val mutable sem_push_batch :
        (Oclick_packet.Packet.t array -> unit) option = None

    val mutable ports_scratch : int array = [||]
    method name = name
    method virtual class_name : string

    method code_class =
      match code_class_override with
      | Some c -> c
      | None -> self#class_name

    method set_code_class c = code_class_override <- Some c
    method direct_dispatch = direct_dispatch
    method set_direct_dispatch b = direct_dispatch <- b
    method port_count = "1/1"
    method processing = "a/a"
    method flow_code = "x/x"

    method configure config : (unit, string) result =
      if String.trim config = "" then Ok ()
      else
        Error
          (Printf.sprintf "%s: class %s takes no configuration" name
             self#class_name)

    method initialize (_ctx : init_ctx) : (unit, string) result = Ok ()
    method index = index
    method set_index i = index <- i

    method set_hooks h =
      hooks <- h;
      lean_work <- h.Hooks.on_work == Hooks.null.Hooks.on_work;
      self#rewire

    method lean_work = lean_work

    method set_nports ~inputs ~outputs =
      in_targets <- Array.make inputs None;
      out_targets <- Array.make outputs None;
      callees <- Array.make outputs (None, None);
      in_pull <- Array.make inputs (fun () -> None);
      in_pull_batch <- Array.make inputs (fun _ -> 0);
      out_push <- Array.make outputs ignore;
      out_push_batch <- Array.make outputs ignore;
      self#rewire

    (* Rebuild every port, and the bodies that captured them, after
       something they captured changed. *)
    method private rewire =
      Array.iteri (fun port _ -> self#wire_output port) out_targets;
      Array.iteri (fun port _ -> self#wire_input port) in_targets;
      self#sem_changed

    method private sem_changed =
      sem_push <- None;
      sem_push_batch <- None

    method ninputs = Array.length in_targets
    method noutputs = Array.length out_targets

    method connect_output port (dst : t) dst_port =
      if port < 0 || port >= Array.length out_targets then
        invalid_arg (name ^ ": connect_output port out of range");
      out_targets.(port) <-
        Some (dst, dst_port, self#transfer_record ~pull:false port dst dst_port);
      self#wire_output port;
      self#sem_changed

    method connect_input port (src : t) src_port =
      if port < 0 || port >= Array.length in_targets then
        invalid_arg (name ^ ": connect_input port out of range");
      in_targets.(port) <-
        Some (src, src_port, self#transfer_record ~pull:true port src src_port);
      self#wire_input port

    method link port =
      if port < 0 || port >= Array.length out_targets then None
      else self#link_of out_targets.(port)

    method private link_of = function
      | None -> None
      | Some (ln_to, ln_to_port, ln_record) ->
          let ln_hooks = hooks and ln_mangle = mangle and ln_from = (self :> t) in
          Some { ln_record; ln_hooks; ln_mangle; ln_from; ln_to; ln_to_port }

    method set_callee port callee callee_batch =
      callees.(port) <- (callee, callee_batch);
      self#wire_output port;
      self#sem_changed;
      (out_push.(port), out_push_batch.(port))

    method private wire_output port =
      let push, push_batch =
        match self#link port with
        | None -> unwired (self :> t) port
        | Some ln ->
            let callee, callee_batch = callees.(port) in
            push_port ln ~callee ~callee_batch
      in
      out_push.(port) <- push;
      out_push_batch.(port) <- push_batch

    method private wire_input port =
      match self#link_of in_targets.(port) with
      | None -> ()
      | Some ln ->
          let pull, pull_batch = pull_port ln in
          in_pull.(port) <- pull;
          in_pull_batch.(port) <- pull_batch

    (* Output [k]'s port, for a body to capture; a port past the outputs
       drops as unconnected. *)
    method private port k =
      if k >= 0 && k < Array.length out_push then (out_push.(k), out_push_batch.(k))
      else unwired (self :> t) k

    method private transfer_record ~pull port (peer : t) peer_port =
      {
        Hooks.tr_src_idx = index;
        tr_src_class = self#code_class;
        tr_src_port = port;
        tr_dst_idx = peer#index;
        tr_dst_class = peer#class_name;
        tr_dst_port = peer_port;
        tr_direct = direct_dispatch;
        tr_pull = pull;
      }

    method push (_port : int) (p : Oclick_packet.Packet.t) =
      match sem_push with
      | Some f -> f p
      | None -> (
          match self#region_sem with
          | None -> self#drop ~reason:"push to non-push element" p
          | Some sem ->
              let f =
                Region.body sem ~noutputs:self#noutputs ~lean_work
                  ~out:(fun k -> fst (self#port k))
              in
              sem_push <- Some f;
              f p)

    method pull (_port : int) : Oclick_packet.Packet.t option = None

    (** {2 Batched transfer path} *)

    method batch_size = batch_size
    method set_batch_size n = batch_size <- max 1 n
    method set_pool p = pool <- p

    (* Pool-aware allocation for source elements: recycled buffer when a
       pool is installed, fresh packet otherwise. *)
    method private alloc ?headroom len =
      match pool with
      | Some pl -> Oclick_packet.Packet.Pool.alloc pl ?headroom len
      | None -> Oclick_packet.Packet.create ?headroom len

    method private recycle p =
      match pool with
      | Some pl -> Oclick_packet.Packet.Pool.recycle pl p
      | None -> ()

    (* Run [f p] under the same per-packet fault containment the scalar
       transfer path provides, but from the receiving side: push_batch
       implementations run inside the destination element, so they must
       contain their own per-packet faults (the caller has already handed
       the whole batch over). Reason strings match the scalar path
       exactly, so per-reason drop totals are batch-invariant; only the
       reporting element differs (the destination rather than the
       source). *)
    method private guard (f : Oclick_packet.Packet.t -> unit) p =
      if !quarantined then refuse (self :> t) p
      else
        match f p with
        | () -> consecutive_faults := 0
        | exception e when not (fatal e) -> fault (self :> t) e p

    (* Reuse the batch array for a shorter prefix without copying when
       nothing was filtered out. *)
    method private sub_batch (batch : Oclick_packet.Packet.t array) m =
      if m = Array.length batch then batch else Array.sub batch 0 m

    (* A per-element reusable batch array (grow-only), so task loops
       don't allocate one per scheduler round. *)
    method private scratch n =
      if Array.length scratch_arr < n then
        scratch_arr <- Array.make n (Lazy.force placeholder);
      scratch_arr

    method push_batch port (batch : Oclick_packet.Packet.t array) =
      match sem_push_batch with
      | Some f -> f batch
      | None -> (
          match self#region_sem with
          | None ->
              let f = self#push port in
              for i = 0 to Array.length batch - 1 do
                self#guard f batch.(i)
              done
          | Some sem ->
              let f = self#vector sem in
              sem_push_batch <- Some f;
              f batch)

    (* The one-element vector form of [sem]. The batch array is scratch:
       callers must not rely on its contents after push_batch returns. *)
    method private vector sem : Oclick_packet.Packet.t array -> unit =
      match sem with
      | Region.Set_paint _ | Region.Guard _ | Region.Mutate _ ->
          (* Run the stage over the batch, compacting survivors in place,
             then forward the whole surviving prefix in one transfer. *)
          let eff = Region.stage sem and forward = snd (self#port 0) in
          fun batch ->
            let m = ref 0 in
            for i = 0 to Array.length batch - 1 do
              let p = batch.(i) in
              if !quarantined then refuse (self :> t) p
              else
                match eff p with
                | true ->
                    batch.(!m) <- p;
                    incr m;
                    consecutive_faults := 0
                | false -> consecutive_faults := 0
                | exception e when not (fatal e) -> fault (self :> t) e p
            done;
            if !m > 0 then forward (self#sub_batch batch !m)
      | Region.Classify { cl_tree; cl_charge; cl_invalid } ->
          let visited = ref 0 in
          self#by_port ~invalid:cl_invalid
            (fun p ->
              let v = Tree.classify_packed cl_tree p in
              visited := !visited + Tree.packed_visited v;
              Tree.packed_output v)
            ~flush:(fun () ->
              (* One summed charge: the cost model is linear in nodes
                 visited. *)
              if (not lean_work) && !visited > 0 then cl_charge !visited;
              visited := 0)
      | Region.Paint_switch { ps_invalid } ->
          self#by_port ~invalid:ps_invalid
            (fun p -> (Oclick_packet.Packet.anno p).Oclick_packet.Packet.paint)
            ~flush:ignore
      | Region.Route { rt_make_batch; _ } ->
          (* The lookup takes the vector whole (DIR-24-8 walks it in two
             passes) and raises nothing to contain, so the quarantine
             flag cannot change while it runs: one check covers it. *)
          let lookup = rt_make_batch ~lean_work in
          fun batch ->
            if !quarantined then Array.iter (refuse (self :> t)) batch
            else begin
              let ports = self#ports (Array.length batch) in
              lookup batch ports;
              consecutive_faults := 0;
              self#emit_runs batch ports
            end

    (* The vector form of a sem that picks one output per packet under
       the per-packet quarantine check and fault containment of the
       scalar transfer; a pick outside the outputs goes to [invalid].
       [flush] then makes the vector's summed charge before it leaves. *)
    method private by_port ~invalid pick ~flush batch =
      let n = Array.length batch and nout = self#noutputs in
      let ports = self#ports n in
      for i = 0 to n - 1 do
        let p = batch.(i) in
        ports.(i) <-
          (if !quarantined then begin
             refuse (self :> t) p;
             Region.consumed
           end
           else
             match pick p with
             | k when k >= 0 && k < nout ->
                 consecutive_faults := 0;
                 k
             | _ ->
                 consecutive_faults := 0;
                 invalid p;
                 Region.consumed
             | exception e when not (fatal e) ->
                 fault (self :> t) e p;
                 Region.consumed)
      done;
      flush ();
      self#emit_runs batch ports

    method private ports n =
      if Array.length ports_scratch < n then ports_scratch <- Array.make n 0;
      ports_scratch

    (* Forward [batch] in runs of consecutive packets bound for the same
       output: a run of one as a scalar transfer, a longer run as one
       batched transfer. [ports.(i)] is [batch.(i)]'s output, or
       [Region.consumed] for a packet already accounted. *)
    method private emit_runs (batch : Oclick_packet.Packet.t array) ports =
      let n = Array.length batch in
      let i = ref 0 in
      while !i < n do
        let port = ports.(!i) in
        let j = ref (!i + 1) in
        while !j < n && ports.(!j) = port do
          incr j
        done;
        let len = !j - !i in
        if port <> Region.consumed then begin
          if len = 1 then out_push.(port) batch.(!i)
          else if len = n then out_push_batch.(port) batch
          else out_push_batch.(port) (Array.sub batch !i len)
        end;
        i := !j
      done

    method pull_batch port (dst : Oclick_packet.Packet.t array) =
      (* Fill-style: write up to [Array.length dst] packets into [dst]
         from the front, return how many. Default loops the scalar
         [pull]; stops at the first refusal or contained fault. *)
      let n = Array.length dst in
      let i = ref 0 in
      let eos = ref false in
      while (not !eos) && !i < n do
        match self#pull port with
        | Some p ->
            dst.(!i) <- p;
            incr i;
            consecutive_faults := 0
        | None -> eos := true
        | exception e when not (fatal e) ->
            self#record_fault (Printexc.to_string e);
            eos := true
      done;
      !i

    method wants_task = false
    method run_task = false
    method stats : (string * int) list = []

    method read_handler handler =
      match handler with
      | "name" -> Some name
      | "class" -> Some self#class_name
      | h -> Option.map string_of_int (List.assoc_opt h self#stats)

    method write_handler handler (_value : string) : (unit, string) result =
      Error (Printf.sprintf "%s: no write handler %S" name handler)

    (** {2 Degradation layer} *)

    method is_quarantined = !quarantined
    method fault_count = fault_count
    method set_quarantine_threshold n = quarantine_threshold <- n
    method set_mangle f =
      mangle <- f;
      self#rewire

    method set_clock f = clock <- f

    (* The degradation state as raw cells, for the transfer builder: the
       quarantine flag (read per packet) and the consecutive-fault counter
       (cleared per successful delivery). *)
    method degrade_cells = (quarantined, consecutive_faults)

    method record_fault reason =
      fault_count <- fault_count + 1;
      incr consecutive_faults;
      hooks.Hooks.on_fault ~idx:index ~cls:self#class_name ~reason;
      if
        quarantine_threshold > 0
        && !consecutive_faults >= quarantine_threshold
        && not !quarantined
      then begin
        quarantined := true;
        hooks.Hooks.on_warn ~src:name
          (Printf.sprintf "quarantined after %d consecutive faults (last: %s)"
             !consecutive_faults reason)
      end

    method region_sem : Region.sem option = None

    method output port p =
      if port >= 0 && port < Array.length out_push then
        Array.unsafe_get out_push port p
      else self#drop ~reason:(Printf.sprintf "unconnected output %d" port) p

    method input_pull port =
      if port >= 0 && port < Array.length in_pull then
        Array.unsafe_get in_pull port ()
      else None

    method output_batch port (batch : Oclick_packet.Packet.t array) =
      if port >= 0 && port < Array.length out_push_batch then
        Array.unsafe_get out_push_batch port batch
      else Array.iter (self#output port) batch

    method input_pull_batch port (dst : Oclick_packet.Packet.t array) =
      if port >= 0 && port < Array.length in_pull_batch then
        Array.unsafe_get in_pull_batch port dst
      else 0

    method charge w = hooks.Hooks.on_work ~idx:index ~cls:self#class_name w

    method drop ~reason p =
      hooks.Hooks.on_drop ~idx:index ~cls:self#class_name ~reason p

    method spawn p = hooks.Hooks.on_spawn ~idx:index ~cls:self#class_name p
  end

class virtual simple_action (name : string) =
  object (self)
    inherit base name

    (* The element's one body: mutate [p] in place and answer whether it
       continues on output 0. Side outputs and drops go through
       [output]/[drop] inside the body. *)
    method virtual private inplace : Oclick_packet.Packet.t -> verdict

    method! pull _ =
      match self#input_pull 0 with
      | Some p as r -> if self#inplace p = V_keep then r else None
      | None -> None

    (* The barrier is the safe default: a body may rewrite bytes or
       lengths. Elements whose sem can say more override this. *)
    method! region_sem =
      Some
        (Region.Guard
           {
             gd_shift = 0;
             gd_barrier = true;
             gd_run = (fun p -> self#inplace p = V_keep);
           })
  end

let configure_error msg = Error msg
