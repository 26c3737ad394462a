type init_ctx = {
  ic_graph : Oclick_graph.Router.t;
  ic_element : int -> t;
  ic_find : string -> t option;
  ic_device : string -> Netdevice.t option;
  ic_index : int;
}

(* Context handed to [fuse] by the graph compiler: [fc_out port] is the
   compiled connection closure for this element's output [port] — calling
   it is exactly [output port p] on the compiled path. [fc_lean_work]
   tells the element whether the installed hooks ignore work charges, so
   a compiled body may specialize the charge away. *)
and fuse_ctx = {
  fc_out : int -> Oclick_packet.Packet.t -> unit;
  fc_lean_work : bool;
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
  set_nports : inputs:int -> outputs:int -> unit;
  ninputs : int;
  noutputs : int;
  connect_output : int -> t -> int -> unit;
  connect_input : int -> t -> int -> unit;
  push : int -> Oclick_packet.Packet.t -> unit;
  pull : int -> Oclick_packet.Packet.t option;
  push_batch : int -> Oclick_packet.Packet.t array -> unit;
  pull_batch : int -> Oclick_packet.Packet.t array -> int;
  output : int -> Oclick_packet.Packet.t -> unit;
  input_pull : int -> Oclick_packet.Packet.t option;
  batch_size : int;
  set_batch_size : int -> unit;
  set_pool : Oclick_packet.Packet.Pool.t option -> unit;
  fuse : fuse_ctx -> (Oclick_packet.Packet.t -> unit) option;
  region_sem : Region.sem option;
  set_fused :
    out:(Oclick_packet.Packet.t -> unit) array ->
    out_batch:(Oclick_packet.Packet.t array -> unit) array ->
    unit;
  degrade_cells : bool ref * int ref;
  mangle_fn : (Oclick_packet.Packet.t -> unit) option;
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
  drop : reason:string -> Oclick_packet.Packet.t -> unit;
  note_ok : unit >

(* Exceptions the degradation layer must never swallow. *)
let fatal = function
  | Out_of_memory | Stack_overflow | Sys.Break -> true
  | _ -> false

(* Verdict of a simple_action element's in-place fast path. All three
   constructors are immediates, so elements whose action mutates the
   packet in place (the common case on the forwarding path) report
   keep/drop without boxing a [Packet.t option] per packet. [V_defer]
   (the default) routes through the option-returning [action], for
   elements that may substitute a different packet. *)
type verdict = V_keep | V_drop | V_defer

(* Shared fill value for scratch batch arrays; never read before a real
   packet is written over it. *)
let placeholder = lazy (Oclick_packet.Packet.create 0)
let force_scratch_placeholder () = ignore (Lazy.force placeholder)

class virtual base (name : string) =
  object (self)
    val mutable index = -1
    val mutable hooks = Hooks.null

    (* Leanness of the installed hooks, cached once in [set_hooks] so the
       inner transfer paths pay a single branch instead of re-reading the
       hook record (and allocating a transfer report) per packet. *)
    val mutable lean_transfer = true
    val mutable lean_transfer_batch = true
    val mutable lean_work = true
    val mutable out_targets : (t * int) option array = [||]
    val mutable in_targets : (t * int) option array = [||]

    (* Compiled connection closures, one per output port, installed by the
       graph compiler (lib/compile). Empty = interpreted dispatch. *)
    val mutable fused_out : (Oclick_packet.Packet.t -> unit) array = [||]

    val mutable fused_out_batch :
        (Oclick_packet.Packet.t array -> unit) array = [||]

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
      lean_transfer <- h.Hooks.on_transfer == Hooks.null.Hooks.on_transfer;
      lean_transfer_batch <-
        h.Hooks.on_transfer_batch == Hooks.null.Hooks.on_transfer_batch;
      lean_work <- h.Hooks.on_work == Hooks.null.Hooks.on_work

    method set_nports ~inputs ~outputs =
      in_targets <- Array.make inputs None;
      out_targets <- Array.make outputs None

    method ninputs = Array.length in_targets
    method noutputs = Array.length out_targets

    method connect_output port (dst : t) dst_port =
      if port < 0 || port >= Array.length out_targets then
        invalid_arg (name ^ ": connect_output port out of range");
      out_targets.(port) <- Some (dst, dst_port)

    method connect_input port (src : t) src_port =
      if port < 0 || port >= Array.length in_targets then
        invalid_arg (name ^ ": connect_input port out of range");
      in_targets.(port) <- Some (src, src_port)

    method push (_port : int) (p : Oclick_packet.Packet.t) =
      self#drop ~reason:"push to non-push element" p

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
      if !quarantined then self#drop ~reason:"quarantined element" p
      else
        match f p with
        | () -> consecutive_faults := 0
        | exception e when not (fatal e) ->
            self#record_fault (Printexc.to_string e);
            self#drop ~reason:"element fault" p

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
      (* Compatibility default: every element class works under batching
         unmodified by looping the scalar [push]. Hot elements override
         this with loops that hoist dispatch, hook reporting, and config
         lookups out of the per-packet body. *)
      let f = self#push port in
      for i = 0 to Array.length batch - 1 do
        self#guard f batch.(i)
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
    method set_mangle f = mangle <- f
    method mangle_fn = mangle
    method set_clock f = clock <- f
    method note_ok = consecutive_faults := 0

    (* The degradation state as raw cells, for the graph compiler: the
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

    method fuse (_ : fuse_ctx) : (Oclick_packet.Packet.t -> unit) option =
      None

    method region_sem : Region.sem option = None

    method set_fused ~out ~out_batch =
      fused_out <- out;
      fused_out_batch <- out_batch

    method output port p =
      if port >= 0 && port < Array.length fused_out then fused_out.(port) p
      else
        match
          if port >= 0 && port < Array.length out_targets then
            out_targets.(port)
          else None
        with
      | Some (dst, dst_port) ->
          (match mangle with Some f -> f p | None -> ());
          if dst#is_quarantined then
            self#drop ~reason:"quarantined element" p
          else begin
            if not lean_transfer then
              hooks.Hooks.on_transfer
                {
                  Hooks.tr_src_idx = index;
                  tr_src_class = self#code_class;
                  tr_src_port = port;
                  tr_dst_idx = dst#index;
                  tr_dst_class = dst#class_name;
                  tr_dst_port = dst_port;
                  tr_direct = direct_dispatch;
                  tr_pull = false;
                }
                p;
            match dst#push dst_port p with
            | () -> dst#note_ok
            | exception e when not (fatal e) ->
                (* The packet died inside [dst], and the transfer into it
                   was already reported, so the drop must be accounted to
                   [dst]: that keeps per-element packet books balanced and
                   matches the batched path, where push_batch's own guard
                   (running inside the destination) records the drop. *)
                dst#record_fault (Printexc.to_string e);
                dst#drop ~reason:"element fault" p
          end
      | None ->
          self#drop ~reason:(Printf.sprintf "unconnected output %d" port) p

    method input_pull port =
      match
        if port >= 0 && port < Array.length in_targets then in_targets.(port)
        else None
      with
      | Some (src, src_port) -> (
          if src#is_quarantined then None
          else
            match src#pull src_port with
            | Some p as result ->
                src#note_ok;
                (* Report only pulls that move a packet: idle polling is part
                   of the scheduler loop, not per-packet cost (the paper's
                   cycle counters bracket packet-processing code). *)
                if not lean_transfer then
                  hooks.Hooks.on_transfer
                    {
                      Hooks.tr_src_idx = index;
                      tr_src_class = self#code_class;
                      tr_src_port = port;
                      tr_dst_idx = src#index;
                      tr_dst_class = src#class_name;
                      tr_dst_port = src_port;
                      tr_direct = direct_dispatch;
                      tr_pull = true;
                    }
                    p;
                result
            | None -> None
            | exception e when not (fatal e) ->
                src#record_fault (Printexc.to_string e);
                None)
      | None -> None

    method output_batch port (batch : Oclick_packet.Packet.t array) =
      let n = Array.length batch in
      if n = 1 then self#output port batch.(0)
      else if n > 0 then
        if port >= 0 && port < Array.length fused_out_batch then
          fused_out_batch.(port) batch
        else
        match
          if port >= 0 && port < Array.length out_targets then
            out_targets.(port)
          else None
        with
        | Some (dst, dst_port) -> (
            (match mangle with
            | Some f ->
                for i = 0 to n - 1 do
                  f batch.(i)
                done
            | None -> ());
            if dst#is_quarantined then
              for i = 0 to n - 1 do
                self#drop ~reason:"quarantined element" batch.(i)
              done
            else begin
              if not lean_transfer_batch then
                hooks.Hooks.on_transfer_batch
                  {
                    Hooks.tr_src_idx = index;
                    tr_src_class = self#code_class;
                    tr_src_port = port;
                    tr_dst_idx = dst#index;
                    tr_dst_class = dst#class_name;
                    tr_dst_port = dst_port;
                    tr_direct = direct_dispatch;
                    tr_pull = false;
                  }
                  batch n;
              match dst#push_batch dst_port batch with
              | () -> dst#note_ok
              | exception e when not (fatal e) ->
                  (* push_batch implementations contain their own
                     per-packet faults; an escape means we no longer know
                     which packets were consumed, so account the whole
                     batch as faulted rather than leak it from the
                     conservation ledger. The drops belong to [dst] (the
                     element the packets already transferred into), same
                     as the scalar path. *)
                  dst#record_fault (Printexc.to_string e);
                  for i = 0 to n - 1 do
                    dst#drop ~reason:"element fault" batch.(i)
                  done
            end)
        | None ->
            for i = 0 to n - 1 do
              self#drop
                ~reason:(Printf.sprintf "unconnected output %d" port)
                batch.(i)
            done

    method input_pull_batch port (dst : Oclick_packet.Packet.t array) =
      if Array.length dst = 1 then (
        match self#input_pull port with
        | Some p ->
            dst.(0) <- p;
            1
        | None -> 0)
      else
        match
          if port >= 0 && port < Array.length in_targets then in_targets.(port)
          else None
        with
        | Some (src, src_port) ->
            if src#is_quarantined then 0
            else
              let n =
                (* pull_batch implementations contain their own faults
                   (the base default does); a defensive catch here keeps
                   an escape from killing the pulling element's task. *)
                match src#pull_batch src_port dst with
                | n -> n
                | exception e when not (fatal e) ->
                    src#record_fault (Printexc.to_string e);
                    0
              in
              if n > 0 then begin
                src#note_ok;
                if not lean_transfer_batch then
                  hooks.Hooks.on_transfer_batch
                    {
                      Hooks.tr_src_idx = index;
                      tr_src_class = self#code_class;
                      tr_src_port = port;
                      tr_dst_idx = src#index;
                      tr_dst_class = src#class_name;
                      tr_dst_port = src_port;
                      tr_direct = direct_dispatch;
                      tr_pull = true;
                    }
                    dst n
              end;
              n
        | None -> 0

    method charge w = hooks.Hooks.on_work ~idx:index ~cls:self#class_name w

    (* Whether [charge] would reach a real hook: per-packet charge sites
       guard on this so the [Hooks.work] constructor isn't boxed just to
       feed a null hook. *)
    method lean_work = lean_work

    method drop ~reason p =
      hooks.Hooks.on_drop ~idx:index ~cls:self#class_name ~reason p

    method spawn p = hooks.Hooks.on_spawn ~idx:index ~cls:self#class_name p
  end

class virtual simple_action (name : string) =
  object (self)
    inherit base name

    method virtual private action
        : Oclick_packet.Packet.t -> Oclick_packet.Packet.t option

    (* In-place fast path: an element whose action never substitutes a
       different packet overrides this with its real body (mutating [p]
       and answering [V_keep]/[V_drop]) and leaves [action] delegating to
       it, so every transfer path below checks the unboxed verdict first
       and only falls back to the allocating [action] on [V_defer]. *)
    method private inplace (_ : Oclick_packet.Packet.t) : verdict = V_defer

    (* The delegation body for in-place elements' [action]: boxes the
       verdict only for callers that need the option form. *)
    method private action_of_inplace p =
      match self#inplace p with
      | V_keep -> Some p
      | V_drop -> None
      | V_defer -> invalid_arg (name ^ ": inplace deferred to itself")

    method! push _ p =
      match self#inplace p with
      | V_keep -> self#output 0 p
      | V_drop -> ()
      | V_defer -> (
          match self#action p with Some p -> self#output 0 p | None -> ())

    method! pull _ =
      match self#input_pull 0 with
      | Some p as r -> (
          match self#inplace p with
          | V_keep -> r
          | V_drop -> None
          | V_defer -> self#action p)
      | None -> None

    method! push_batch _ batch =
      (* Generic batched fast path for every simple_action element:
         apply [action] to each packet, compacting survivors in place,
         then forward the whole surviving prefix in one transfer. The
         batch array is scratch — callers must not rely on its contents
         after push_batch returns. *)
      let n = Array.length batch in
      let m = ref 0 in
      for i = 0 to n - 1 do
        let p = batch.(i) in
        if !quarantined then self#drop ~reason:"quarantined element" p
        else
          match self#inplace p with
          | V_keep ->
              batch.(!m) <- p;
              incr m;
              consecutive_faults := 0
          | V_drop -> consecutive_faults := 0
          | V_defer -> (
              match self#action p with
              | Some q ->
                  batch.(!m) <- q;
                  incr m;
                  consecutive_faults := 0
              | None -> consecutive_faults := 0
              | exception e when not (fatal e) ->
                  self#record_fault (Printexc.to_string e);
                  self#drop ~reason:"element fault" p)
          | exception e when not (fatal e) ->
              self#record_fault (Printexc.to_string e);
              self#drop ~reason:"element fault" p
      done;
      if !m > 0 then self#output_batch 0 (self#sub_batch batch !m)

    method! fuse ctx =
      (* The generic compiled body for every simple_action element
         without a sem: exactly [push], with the downstream transfer
         already resolved to the compiled connection closure. *)
      let k = ctx.fc_out 0 in
      Some
        (fun p ->
          match self#inplace p with
          | V_keep -> k p
          | V_drop -> ()
          | V_defer -> (
              match self#action p with Some q -> k q | None -> ()))
  end

let configure_error msg = Error msg
