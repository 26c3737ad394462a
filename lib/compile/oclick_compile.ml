(* The whole-graph datapath compiler: see oclick_compile.mli for the
   overview. The core invariant is that every compiled closure replays
   the interpreted transfer protocol (Element.base#output /
   #output_batch) step for step — mangle, quarantine check, hook report,
   delivery, containment, consecutive-fault clearing — with everything
   static resolved at compile time: the destination, the port, the
   transfer record (preallocated; its eight fields are per-connection
   constants), the hook leanness, and the presence of a mangler. *)

module Graph = Oclick_graph
module Packet = Oclick_packet.Packet
module Element = Oclick_runtime.Element
module Hooks = Oclick_runtime.Hooks
module Driver = Oclick_runtime.Driver
module Registry = Oclick_runtime.Registry
module Fdd = Oclick_fdd

type stats = {
  st_connections : int;
  st_fused : int;
  st_fallbacks : int;
  st_regions : Fdd.region list;
}

(* Stats of the most recent [install], for tools that reach compilation
   through [Driver.instantiate] (which discards the result value). *)
let last : stats option ref = ref None
let last_stats () = !last

let check_rejects graph =
  (* Conservative rejection: a direct self-loop gives fusion no edge to
     bottom out on, and the interpreted path is the honest execution of
     it. Cycles through more than one element are fine — the back edge
     falls back to dynamic dispatch. *)
  let self_loop =
    List.find_opt
      (fun (h : Graph.Router.hookup) -> h.from_idx = h.to_idx)
      (Graph.Router.hookups graph)
  in
  match self_loop with
  | Some h ->
      Error
        (Printf.sprintf "%s: self-loop [%d] -> [%d] is not compilable"
           (Graph.Router.name graph h.from_idx)
           h.from_port h.to_port)
  | None -> Ok ()

let install ?(fuse = false) (d : Driver.t) : (stats, string) result =
  let graph = Driver.graph d in
  match check_rejects graph with
  | Error _ as e -> e
  | Ok () -> (
      match Graph.Check.resolve_processing graph Registry.spec_table with
      | Error msgs -> Error (String.concat "; " msgs)
      | Ok resolved ->
          let n = Driver.size d in
          let elements = Array.init n (Driver.element_at d) in
          let hooks = Driver.hooks d in
          let lean =
            hooks.Hooks.on_transfer == Hooks.null.Hooks.on_transfer
          in
          let lean_batch =
            hooks.Hooks.on_transfer_batch == Hooks.null.Hooks.on_transfer_batch
          in
          let lean_work = hooks.Hooks.on_work == Hooks.null.Hooks.on_work in
          (* Push wiring, rebuilt the same way the driver wired it: a
             hookup whose output side resolved Push or Agnostic was
             connected via connect_output; everything else (pull wiring,
             genuinely unconnected ports) interprets as "no push
             target". *)
          let out =
            Array.init n (fun i -> Array.make elements.(i)#noutputs None)
          in
          List.iter
            (fun (h : Graph.Router.hookup) ->
              match resolved.Graph.Check.output_kind.(h.from_idx).(h.from_port) with
              | Graph.Spec.Push | Graph.Spec.Agnostic ->
                  out.(h.from_idx).(h.from_port) <- Some (h.to_idx, h.to_port)
              | Graph.Spec.Pull -> ())
            (Graph.Router.hookups graph);
          let connections = ref 0 and fused = ref 0 and fallbacks = ref 0 in
          let regions = ref [] in
          (* Under [fuse], the FDD pass plans one diagram per region
             root; elements entered only from inside a region keep their
             per-element body (used when they are entered directly). *)
          let plans =
            if fuse then Fdd.plan_regions elements out hooks
            else Array.make n None
          in
          (* Per-element compiled bodies, memoized; [building] marks the
             elements whose body is in progress so a cycle reaching back
             into one of them takes the dynamic-dispatch fallback instead
             of recursing forever. [vectors] holds a region root's vector
             body once its diagram is compiled. *)
          let bodies : (Packet.t -> unit) option array = Array.make n None in
          let vectors : (Packet.t array -> unit) option array =
            Array.make n None
          in
          let attempted = Array.make n false in
          let building = Array.make n false in
          let conns : (Packet.t -> unit) option array array =
            Array.init n (fun i -> Array.make (Array.length out.(i)) None)
          in
          let conns_batch : (Packet.t array -> unit) option array array =
            Array.init n (fun i -> Array.make (Array.length out.(i)) None)
          in
          let rec body i =
            if building.(i) then None
            else if attempted.(i) then bodies.(i)
            else begin
              building.(i) <- true;
              (* A region root runs its decision diagram in place of the
                 element's own body; everything else — or everything,
                 without [fuse] — runs its per-element body. *)
              let r =
                match plans.(i) with
                | Some plan ->
                    let f =
                      Fdd.compile
                        {
                          Fdd.fd_elements = elements;
                          fd_conn = (fun j port -> conn j port);
                          fd_conn_batch = (fun j port -> conn_batch j port);
                          fd_hooks = hooks;
                        }
                        plan
                    in
                    regions := f.Fdd.fu_region :: !regions;
                    vectors.(i) <- Some f.Fdd.fu_vector;
                    Some f.Fdd.fu_scalar
                | None -> (
                    (* The body resolves its connection closures when it
                       is built, so it chains compiled neighbours with a
                       direct call — no memo lookup on the hot path.
                       Recursion is safe: resolving a connection may
                       build the destination's body, and the [building]
                       flags break cycles into dynamic fallbacks. An
                       element with a sem gets the body the sem
                       describes; only the others supply their own. *)
                    let out port = conn i port in
                    match elements.(i)#region_sem with
                    | Some sem ->
                        Some
                          (Fdd.body sem ~noutputs:elements.(i)#noutputs
                             ~lean_work ~out)
                    | None ->
                        elements.(i)#fuse
                          { Element.fc_out = out; fc_lean_work = lean_work })
              in
              building.(i) <- false;
              attempted.(i) <- true;
              bodies.(i) <- r;
              if r <> None then incr fused;
              r
            end
          and conn i port =
            match conns.(i).(port) with
            | Some f -> f
            | None ->
                let f = make_conn i port in
                conns.(i).(port) <- Some f;
                f
          and make_conn i port =
            let src = elements.(i) in
            match out.(i).(port) with
            | None ->
                let reason = Printf.sprintf "unconnected output %d" port in
                fun p -> src#drop ~reason p
            | Some (j, dst_port) ->
                incr connections;
                let dst = elements.(j) in
                let quarantined, consec = dst#degrade_cells in
                let callee =
                  match body j with
                  | Some f -> f
                  | None ->
                      incr fallbacks;
                      fun p -> dst#push dst_port p
                in
                let record =
                  {
                    Hooks.tr_src_idx = src#index;
                    tr_src_class = src#code_class;
                    tr_src_port = port;
                    tr_dst_idx = dst#index;
                    tr_dst_class = dst#class_name;
                    tr_dst_port = dst_port;
                    tr_direct = src#direct_dispatch;
                    tr_pull = false;
                  }
                in
                let faulted e p =
                  dst#record_fault (Printexc.to_string e);
                  dst#drop ~reason:"element fault" p
                in
                (* One flat closure in the common lean case: quarantine
                   check, delivery with containment, fault clearing. The
                   hooked variant adds the transfer report; a mangler
                   wraps outermost. *)
                let deliver =
                  if lean then fun p ->
                    if !quarantined then
                      src#drop ~reason:"quarantined element" p
                    else begin
                      match callee p with
                      | () -> consec := 0
                      | exception e when not (Element.fatal e) -> faulted e p
                    end
                  else
                    let on_transfer = hooks.Hooks.on_transfer in
                    fun p ->
                      if !quarantined then
                        src#drop ~reason:"quarantined element" p
                      else begin
                        on_transfer record p;
                        match callee p with
                        | () -> consec := 0
                        | exception e when not (Element.fatal e) ->
                            faulted e p
                      end
                in
                (match src#mangle_fn with
                | None -> deliver
                | Some m ->
                    fun p ->
                      m p;
                      deliver p)
          and conn_batch i port =
            match conns_batch.(i).(port) with
            | Some f -> f
            | None ->
                let f = make_conn_batch i port in
                conns_batch.(i).(port) <- Some f;
                f
          (* The batch twin replays output_batch: a batch of one falls
             back to the scalar connection, larger batches pay one
             quarantine check, one (preallocated) hook report, and one
             dispatch — into the destination's region vector body when
             it roots one, else its push_batch, whose interior transfers
             re-enter the compiled connections anyway. *)
          and make_conn_batch i port =
            let src = elements.(i) in
            let scalar = conn i port in
            match out.(i).(port) with
            | None ->
                let reason = Printf.sprintf "unconnected output %d" port in
                fun batch ->
                  let nb = Array.length batch in
                  if nb = 1 then scalar batch.(0)
                  else
                    for k = 0 to nb - 1 do
                      src#drop ~reason batch.(k)
                    done
            | Some (j, dst_port) ->
                let dst = elements.(j) in
                let quarantined, consec = dst#degrade_cells in
                let mangle = src#mangle_fn in
                let on_transfer_batch = hooks.Hooks.on_transfer_batch in
                (* [scalar] above already compiled [j]'s body, so a root
                   mid-build (a cycle) is the only one without a vector
                   body here; it takes the push_batch fallback. *)
                let callee =
                  match vectors.(j) with
                  | Some v -> v
                  | None -> fun batch -> dst#push_batch dst_port batch
                in
                let record =
                  {
                    Hooks.tr_src_idx = src#index;
                    tr_src_class = src#code_class;
                    tr_src_port = port;
                    tr_dst_idx = dst#index;
                    tr_dst_class = dst#class_name;
                    tr_dst_port = dst_port;
                    tr_direct = src#direct_dispatch;
                    tr_pull = false;
                  }
                in
                fun batch ->
                  let nb = Array.length batch in
                  if nb = 1 then scalar batch.(0)
                  else if nb > 0 then begin
                    (match mangle with
                    | Some m ->
                        for k = 0 to nb - 1 do
                          m batch.(k)
                        done
                    | None -> ());
                    if !quarantined then
                      for k = 0 to nb - 1 do
                        src#drop ~reason:"quarantined element" batch.(k)
                      done
                    else begin
                      if not lean_batch then on_transfer_batch record batch nb;
                      match callee batch with
                      | () -> consec := 0
                      | exception e when not (Element.fatal e) ->
                          dst#record_fault (Printexc.to_string e);
                          for k = 0 to nb - 1 do
                            dst#drop ~reason:"element fault" batch.(k)
                          done
                    end
                  end
          in
          for i = 0 to n - 1 do
            ignore (body i)
          done;
          for i = 0 to n - 1 do
            let nout = Array.length out.(i) in
            elements.(i)#set_fused
              ~out:(Array.init nout (fun port -> conn i port))
              ~out_batch:(Array.init nout (fun port -> conn_batch i port))
          done;
          let st =
            {
              st_connections = !connections;
              st_fused = !fused;
              st_fallbacks = !fallbacks;
              st_regions = List.rev !regions;
            }
          in
          last := Some st;
          Ok st)

let register () =
  Driver.register_compiler (fun ~fuse d ->
      match install ~fuse d with Ok _ -> Ok () | Error _ as e -> e)
