(* The whole-graph datapath compiler: see oclick_compile.mli for the
   overview. A compiled connection is the interpreted one with another
   callee: both are built by Element.push_port, which states the
   transfer protocol once, so the two cannot drift apart. *)

module Graph = Oclick_graph
module Packet = Oclick_packet.Packet
module Element = Oclick_runtime.Element
module Region = Oclick_runtime.Region
module Driver = Oclick_runtime.Driver
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
  match check_rejects (Driver.graph d) with
  | Error _ as e -> e
  | Ok () ->
      let n = Driver.size d in
      let elements = Array.init n (Driver.element_at d) in
      (* The push wiring: [out.(i).(port)] is the (element, port) that
         output [port] of [i] was connected to, as its link records. *)
      let out =
        Array.map
          (fun (e : Element.t) ->
            Array.init e#noutputs (fun port ->
                Option.map
                  (fun ln -> (ln.Element.ln_to#index, ln.Element.ln_to_port))
                  (e#link port)))
          elements
      in
      let connections = ref 0 and fused = ref 0 and fallbacks = ref 0 in
      let regions = ref [] in
      (* Under [fuse], the FDD pass plans one diagram per region root;
         elements entered only from inside a region keep their
         per-element body (used when they are entered directly). *)
      let plans =
        if fuse then Fdd.plan_regions elements out else Array.make n None
      in
      (* Per-element compiled bodies, memoized; [building] marks the
         elements whose body is in progress so a cycle reaching back into
         one of them takes the dynamic-dispatch fallback instead of
         recursing forever. [vectors] holds a region root's vector body
         once its diagram is compiled. *)
      let bodies : (Packet.t -> unit) option array = Array.make n None in
      let vectors : (Packet.t array -> unit) option array = Array.make n None in
      let attempted = Array.make n false in
      let building = Array.make n false in
      let ports :
          ((Packet.t -> unit) * (Packet.t array -> unit)) option array array =
        Array.map (fun o -> Array.make (Array.length o) None) out
      in
      let rec body i =
        if building.(i) then None
        else if attempted.(i) then bodies.(i)
        else begin
          building.(i) <- true;
          (* A region root runs its decision diagram in place of the
             element's own body; everything else — or everything, without
             [fuse] — runs its per-element body. *)
          let r =
            match plans.(i) with
            | Some plan ->
                let f =
                  Fdd.compile
                    { Fdd.fd_elements = elements; fd_port = port_of }
                    plan
                in
                regions := f.Fdd.fu_region :: !regions;
                vectors.(i) <- Some f.Fdd.fu_vector;
                Some f.Fdd.fu_scalar
            | None ->
                (* The body the sem describes. It resolves its ports when
                   it is built, so it chains compiled neighbours with a
                   direct call — no memo lookup on the hot path. Recursion
                   is safe: resolving a port may build the destination's
                   body, and the [building] flags break cycles into
                   dynamic fallbacks. An element without a sem has no
                   body: connections into it call its [push]. *)
                Option.map
                  (fun sem ->
                    Region.body sem ~noutputs:elements.(i)#noutputs
                      ~lean_work:elements.(i)#lean_work
                      ~out:(fun port -> fst (port_of i port)))
                  elements.(i)#region_sem
          in
          building.(i) <- false;
          attempted.(i) <- true;
          bodies.(i) <- r;
          if r <> None then incr fused;
          r
        end
      (* A connection's port, built once: the destination's compiled body
         is its callee (its region's vector body for batches), installed
         on the source so that the source's own [output] calls the same
         closures. An element without a body — no sem, or a cycle back
         into a body still being built — is called through its [push]. *)
      and port_of i port =
        match ports.(i).(port) with
        | Some c -> c
        | None ->
            let src = elements.(i) in
            let c =
              match src#link port with
              | None -> Element.unwired src port
              | Some ln ->
                  incr connections;
                  let j = ln.Element.ln_to#index in
                  let callee = body j in
                  if Option.is_none callee then incr fallbacks;
                  src#set_callee port callee vectors.(j)
            in
            ports.(i).(port) <- Some c;
            c
      in
      for i = 0 to n - 1 do
        ignore (body i)
      done;
      Array.iteri
        (fun i o -> Array.iteri (fun port _ -> ignore (port_of i port)) o)
        out;
      let st =
        {
          st_connections = !connections;
          st_fused = !fused;
          st_fallbacks = !fallbacks;
          st_regions = List.rev !regions;
        }
      in
      last := Some st;
      Ok st

let register () =
  Driver.register_compiler (fun ~fuse d ->
      match install ~fuse d with Ok _ -> Ok () | Error _ as e -> e)
