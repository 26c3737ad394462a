module Graph = Oclick_graph

type t = {
  graph : Graph.Router.t;
  elements : Element.t array;
  by_name : (string, Element.t) Hashtbl.t;
  tasks : Element.t array;
  hooks : Hooks.t;
  mutable rr : int;
      (* Round-robin rotation offset: each call to [run_tasks_once] starts
         the task sweep one position later, so no element is permanently
         favored by declaration order. *)
}

(* The graph compiler is a higher layer (lib/compile depends on this
   library), so it reaches instantiate through a registration point:
   [Oclick_compile.register ()] installs it, [?compile] invokes it. *)
let compiler : (fuse:bool -> t -> (unit, string) result) option ref = ref None
let register_compiler f = compiler := Some f

let compile_installed ?(fuse = false) t =
  match !compiler with
  | None ->
      Error
        "compile: no graph compiler registered (call Oclick_compile.register)"
  | Some f -> (
      match f ~fuse t with
      | Ok () -> Ok t
      | Error e -> Error ("compile: " ^ e))

let instantiate ?(hooks = Hooks.null) ?(devices = []) ?mangle ?quarantine
    ?(batch = 1) ?pool ?(compile = false) ?(fuse = false) ?clock source_graph =
  (* With a pool installed, every accounted drop is also a recycling
     opportunity: the packet is dead once reported. The user's drop hook
     runs first and must not retain the packet. *)
  let hooks =
    match pool with
    | None -> hooks
    | Some pl ->
        let user_on_drop = hooks.Hooks.on_drop in
        {
          hooks with
          Hooks.on_drop =
            (fun ~idx ~cls ~reason p ->
              user_on_drop ~idx ~cls ~reason p;
              Oclick_packet.Packet.Pool.recycle pl p);
        }
  in
  (* Normalize so element indices are dense and in declaration order. *)
  let graph = Graph.Router.of_ast_exn (Graph.Router.to_ast source_graph) in
  let errors = Graph.Check.check graph Registry.spec_table in
  if errors <> [] then Error (String.concat "\n" errors)
  else begin
    match Graph.Check.resolve_processing graph Registry.spec_table with
    | Error msgs -> Error (String.concat "\n" msgs)
    | Ok resolved -> (
        let indices = Graph.Router.indices graph in
        let n = List.length indices in
        let elements = Array.make n None in
        let errors = ref [] in
        let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
        List.iter
          (fun i ->
            let cls = Graph.Router.class_of graph i in
            match Registry.find cls with
            | None -> err "%s: unknown element class %S" (Graph.Router.name graph i) cls
            | Some ctor ->
                let e = ctor (Graph.Router.name graph i) in
                e#set_index i;
                e#set_hooks hooks;
                e#set_mangle mangle;
                e#set_batch_size batch;
                e#set_pool pool;
                (match clock with Some c -> e#set_clock c | None -> ());
                (match quarantine with
                | Some n -> e#set_quarantine_threshold n
                | None -> ());
                elements.(i) <- Some e)
          indices;
        if !errors <> [] then Error (String.concat "\n" (List.rev !errors))
        else begin
          let elements = Array.map Option.get elements in
          let by_name = Hashtbl.create n in
          Array.iter (fun e -> Hashtbl.replace by_name e#name e) elements;
          (* Configure. *)
          Array.iteri
            (fun i e ->
              match e#configure (Graph.Router.config graph i) with
              | Ok () -> ()
              | Error msg -> err "%s: %s" e#name msg)
            elements;
          (* Ports and wiring. *)
          Array.iteri
            (fun i e ->
              e#set_nports
                ~inputs:(Graph.Router.input_port_count graph i)
                ~outputs:(Graph.Router.output_port_count graph i))
            elements;
          List.iter
            (fun (h : Graph.Router.hookup) ->
              let kind =
                resolved.Graph.Check.output_kind.(h.from_idx).(h.from_port)
              in
              match kind with
              | Graph.Spec.Push | Graph.Spec.Agnostic ->
                  elements.(h.from_idx)#connect_output h.from_port
                    elements.(h.to_idx) h.to_port
              | Graph.Spec.Pull ->
                  elements.(h.to_idx)#connect_input h.to_port
                    elements.(h.from_idx) h.from_port)
            (Graph.Router.hookups graph);
          (* Initialize. *)
          let device_table = Hashtbl.create 8 in
          List.iter
            (fun (d : Netdevice.t) -> Hashtbl.replace device_table d#device_name d)
            devices;
          Array.iteri
            (fun i e ->
              let ctx =
                {
                  Element.ic_graph = graph;
                  ic_element = (fun j -> elements.(j));
                  ic_find = Hashtbl.find_opt by_name;
                  ic_device = Hashtbl.find_opt device_table;
                  ic_index = i;
                }
              in
              match e#initialize ctx with
              | Ok () -> ()
              | Error msg -> err "%s: %s" e#name msg)
            elements;
          if !errors <> [] then Error (String.concat "\n" (List.rev !errors))
          else begin
            let tasks =
              Array.of_list
                (List.filter (fun e -> e#wants_task) (Array.to_list elements))
            in
            let t = { graph; elements; by_name; tasks; hooks; rr = 0 } in
            if compile || fuse then compile_installed ~fuse t else Ok t
          end
        end)
  end

let of_string ?hooks ?devices ?mangle ?quarantine ?batch ?pool ?compile ?fuse
    ?clock source =
  match Graph.Router.parse_string source with
  | Error e -> Error e
  | Ok graph ->
      instantiate ?hooks ?devices ?mangle ?quarantine ?batch ?pool ?compile
        ?fuse ?clock graph

let element t name = Hashtbl.find_opt t.by_name name
let element_at t i = t.elements.(i)
let graph t = t.graph
let size t = Array.length t.elements

let tasks t = t.tasks
let compile ?fuse t = Result.map (fun _ -> ()) (compile_installed ?fuse t)

let run_task_array tasks ~start =
  let n = Array.length tasks in
  let any = ref false in
  for i = 0 to n - 1 do
    let e = tasks.((start + i) mod n) in
    if not e#is_quarantined then
      match e#run_task with
      | did -> if did then any := true
      | exception e' when not (Element.fatal e') ->
          e#record_fault (Printexc.to_string e');
          any := true
  done;
  !any

let run_tasks_once t =
  let n = Array.length t.tasks in
  if n = 0 then false
  else begin
    let any = run_task_array t.tasks ~start:t.rr in
    t.rr <- (t.rr + 1) mod n;
    any
  end

let run t ~rounds =
  for _ = 1 to rounds do
    ignore (run_tasks_once t)
  done

let run_until_idle ?(max_rounds = 1_000_000) t =
  let rec loop n = if n > 0 && run_tasks_once t then loop (n - 1) else n > 0 in
  let converged = loop max_rounds in
  if not converged then
    t.hooks.Hooks.on_warn ~src:"driver"
      (Printf.sprintf
         "run_until_idle: still busy after %d rounds (possible livelock)"
         max_rounds);
  converged

let fault_report t =
  Array.to_list t.elements
  |> List.filter_map (fun e ->
         if e#fault_count > 0 then
           Some (e#name, e#fault_count, e#is_quarantined)
         else None)
