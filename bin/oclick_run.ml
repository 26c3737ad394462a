(* oclick-run: install a configuration in the user-level driver and run
   its tasks. Devices named in the configuration are backed by in-memory
   queue devices; element statistics print on exit. With --domains N the
   graph is partitioned at Queue boundaries and each shard runs on its
   own OCaml domain. *)

open Cmdliner

(* Make --compile (Driver.instantiate ~compile:true) available. *)
let () = Oclick_compile.register ()

let device_names router =
  let names = ref [] in
  List.iter
    (fun i ->
      match Oclick_graph.Router.class_of router i with
      | "PollDevice" | "FromDevice" | "ToDevice" -> (
          match Oclick_lang.Args.split (Oclick_graph.Router.config router i) with
          | d :: _ when not (List.mem d !names) -> names := d :: !names
          | _ -> ())
      | _ -> ())
    (Oclick_graph.Router.indices router);
  !names

(* "element.handler=value" *)
let parse_write spec =
  match String.index_opt spec '=' with
  | None -> Tool_common.die "bad --write %S (want ELEMENT.HANDLER=VALUE)" spec
  | Some eq -> (
      let path = String.sub spec 0 eq
      and value = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match String.rindex_opt path '.' with
      | None -> Tool_common.die "bad --write %S (want ELEMENT.HANDLER=VALUE)" spec
      | Some dot ->
          ( String.sub path 0 dot,
            String.sub path (dot + 1) (String.length path - dot - 1),
            value ))

let parse_read spec =
  match String.rindex_opt spec '.' with
  | None -> Tool_common.die "bad --read %S (want ELEMENT.HANDLER)" spec
  | Some dot ->
      ( String.sub spec 0 dot,
        String.sub spec (dot + 1) (String.length spec - dot - 1) )

let element driver name =
  match Oclick_runtime.Driver.element driver name with
  | Some e -> e
  | None -> Tool_common.die "no element named %S" name

let apply_writes driver writes =
  List.iter
    (fun spec ->
      let el, handler, value = parse_write spec in
      match (element driver el)#write_handler handler value with
      | Ok () -> ()
      | Error e -> Tool_common.die "%s" e)
    writes

let apply_reads driver reads =
  List.iter
    (fun spec ->
      let el, handler = parse_read spec in
      match (element driver el)#read_handler handler with
      | Some v -> Printf.printf "%s.%s = %s\n" el handler v
      | None -> Tool_common.die "%s: no read handler %S" el handler)
    reads

let print_stats driver =
  List.iter
    (fun i ->
      let e = Oclick_runtime.Driver.element_at driver i in
      match e#stats with
      | [] -> ()
      | st ->
          Printf.printf "%s (%s): %s\n" e#name e#class_name
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) st)))
    (List.init (Oclick_runtime.Driver.size driver) Fun.id)

let print_pool_stats (st : Oclick_packet.Packet.Pool.stats) =
  Printf.printf
    "pool: allocs=%d reuses=%d recycles=%d rejected=%d free=%d heap_bufs=%d\n"
    st.Oclick_packet.Packet.Pool.st_allocs st.st_reuses st.st_recycles
    st.st_rejected st.st_free st.st_heap_bufs

(* Any element exposing a "routes" stat is a routing table (LookupIPRoute
   and friends) — same discovery rule as the testbed's report. *)
let route_tables_of driver =
  let acc = ref [] in
  for i = Oclick_runtime.Driver.size driver - 1 downto 0 do
    let e = Oclick_runtime.Driver.element_at driver i in
    let stats = e#stats in
    if List.mem_assoc "routes" stats then acc := (e#name, stats) :: !acc
  done;
  !acc

let print_obs ~driver ~rounds ~batch ~report ~report_json ~warnings o =
  let ename idx =
    if idx < 0 then "-"
    else if idx < Oclick_runtime.Driver.size driver then
      (Oclick_runtime.Driver.element_at driver idx)#name
    else Printf.sprintf "e%d" idx
  in
  if report then (
    Printf.printf "per-element breakdown (wall clock):\n";
    print_string (Oclick_obs.Report.table Oclick_obs.Report.Wall o));
  if report_json then begin
    let open Oclick_obs in
    (* The degraded/warnings/route_tables sections are part of the report
       schema (same shapes as oclick-report's passes), present even when
       empty, so JSON consumers never need existence checks. *)
    let degraded =
      warnings <> [] || Oclick_runtime.Driver.fault_report driver <> []
    in
    let route_tables =
      Json.List
        (List.map
           (fun (name, stats) ->
             Json.Obj
               (("name", Json.String name)
               :: List.map (fun (k, v) -> (k, Json.Int v)) stats))
           (route_tables_of driver))
    in
    let j = Report.json Report.Wall o in
    let j =
      match j with
      | Json.Obj kvs ->
          Json.Obj
            (("tool", Json.String "oclick-run")
            :: ("rounds", Json.Int rounds)
            :: ("batch", Json.Int batch)
            :: ("degraded", Json.Bool degraded)
            :: ("warnings", Json.List (List.map (fun w -> Json.String w) warnings))
            :: ("route_tables", route_tables)
            :: kvs)
      | v -> v
    in
    print_endline (Json.to_string j)
  end;
  match Oclick_obs.trace o with
  | None -> ()
  | Some tr ->
      Printf.printf "trace (last %d of %d events):\n"
        (Oclick_obs.Trace.length tr)
        (Oclick_obs.Trace.seen tr);
      List.iter
        (fun (ev : Oclick_obs.Trace.event) ->
          let open Oclick_obs.Trace in
          match ev.ev_kind with
          | Push | Pull ->
              Printf.printf "%8d %10dns %-5s %s[%d] -> %s[%d] pkt %d\n"
                ev.ev_seq ev.ev_ns (kind_name ev.ev_kind)
                (ename ev.ev_src_idx) ev.ev_src_port (ename ev.ev_dst_idx)
                ev.ev_dst_port ev.ev_packet
          | Drop ->
              Printf.printf "%8d %10dns %-5s %s pkt %d (%s)\n" ev.ev_seq
                ev.ev_ns (kind_name ev.ev_kind) (ename ev.ev_src_idx)
                ev.ev_packet ev.ev_reason
          | Spawn ->
              Printf.printf "%8d %10dns %-5s %s pkt %d\n" ev.ev_seq ev.ev_ns
                (kind_name ev.ev_kind) (ename ev.ev_src_idx) ev.ev_packet)
        (Oclick_obs.Trace.events tr)

let set_meta obs router =
  List.iter
    (fun i ->
      Oclick_obs.set_meta obs ~idx:i
        ~name:(Oclick_graph.Router.name router i)
        ~cls:(Oclick_graph.Router.class_of router i))
    (Oclick_graph.Router.indices router)

(* The multi-domain path: every shard gets its own hook record and
   observability ledger (each mutated only by its owning domain), and the
   ledgers merge in shard order after the run, so the combined report is
   deterministic. --rounds bounds the *working* rounds per domain; the
   run otherwise stops when every shard quiesces and every cut ring
   drains. *)
let run_parallel ~rounds ~stats ~batch ~pool ~compile ~fuse ~domains
    ~ring_capacity ~watchdog_ms ~profile_partition ~writes ~reads ~report
    ~report_json ~trace router devices =
  let want_obs = report || report_json || trace <> None in
  let t0 = Unix.gettimeofday () in
  let now () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  (* --profile-partition: a single-domain profiling pre-run over
     throwaway queue devices (same names, so the real run's devices see
     none of its traffic) measures per-element wall-clock cost; the
     partitioner's LPT balance then places shards by observed cost
     instead of element counts. *)
  let weights =
    if not profile_partition then None
    else begin
      let pdevices =
        List.map
          (fun d ->
            (new Oclick_runtime.Netdevice.queue_device d ()
              :> Oclick_runtime.Netdevice.t))
          (device_names router)
      in
      let obs = Oclick_obs.create () in
      let hooks = Oclick_obs.hooks ~now ~wall:true obs Oclick_runtime.Hooks.null in
      match
        Oclick_runtime.Driver.instantiate ~hooks ~devices:pdevices ~batch
          router
      with
      | Error e -> Tool_common.die "%s" e
      | Ok drv ->
          Oclick_runtime.Driver.run drv ~rounds;
          Printf.printf "profile-partition: measured %d elements over %d \
                         rounds\n"
            (Oclick_runtime.Driver.size drv)
            rounds;
          Some (Oclick_obs.cost_weights ~wall:true obs)
    end
  in
  let obs_shards =
    if want_obs then
      Some (Array.init domains (fun _ -> Oclick_obs.create ?trace ~recycles:pool ()))
    else None
  in
  (* Warnings feed the report's degraded/warnings sections; shard hooks
     fire from their own domains, so recording takes a lock. *)
  let warn_mutex = Mutex.create () in
  let warnings = ref [] in
  let record_warn w =
    Mutex.lock warn_mutex;
    warnings := w :: !warnings;
    Mutex.unlock warn_mutex
  in
  let base =
    {
      Oclick_runtime.Hooks.null with
      Oclick_runtime.Hooks.on_warn =
        (fun ~src msg ->
          record_warn (Printf.sprintf "%s: %s" src msg);
          Printf.eprintf "warning: %s: %s\n" src msg);
    }
  in
  let hooks_for shard =
    match obs_shards with
    | None -> base
    | Some a -> Oclick_obs.hooks ~now ~wall:true a.(shard) base
  in
  match
    Oclick_parallel.Runner.create ~hooks_for ~devices ~batch ~pool ~compile
      ~fuse ~ring_capacity ?weights ~clock:now ~domains router
  with
  | Error e -> Tool_common.die "%s" e
  | Ok runner ->
      let driver = Oclick_parallel.Runner.driver runner in
      apply_writes driver writes;
      let rp =
        Oclick_parallel.Runner.run_until_idle_report ~max_rounds:rounds
          ~watchdog_ms runner
      in
      (* A stalled shard means the run completed degraded, not cleanly:
         say so, with the same fault-containment detail the sequential
         path prints, so scripts scraping the output can tell. *)
      if rp.Oclick_parallel.Runner.rp_stalled <> [] then begin
        let ints l = String.concat "," (List.map string_of_int l) in
        record_warn
          (Printf.sprintf "stalled domains [%s]; %d drained"
             (ints rp.Oclick_parallel.Runner.rp_stalled)
             rp.Oclick_parallel.Runner.rp_drained);
        Printf.printf
          "degraded run: stalled domains [%s]%s; %d packet%s drained from \
           their rings\n"
          (ints rp.Oclick_parallel.Runner.rp_stalled)
          (match rp.Oclick_parallel.Runner.rp_leaked with
          | [] -> ""
          | l -> Printf.sprintf " (leaked: [%s])" (ints l))
          rp.Oclick_parallel.Runner.rp_drained
          (if rp.Oclick_parallel.Runner.rp_drained = 1 then "" else "s");
        List.iter
          (fun (name, faults, quarantined) ->
            Printf.printf "element %s: %d fault%s contained%s\n" name faults
              (if faults = 1 then "" else "s")
              (if quarantined then " (quarantined)" else ""))
          (Oclick_runtime.Driver.fault_report driver)
      end;
      apply_reads driver reads;
      if stats then print_stats driver;
      if pool && stats then
        Array.iter print_pool_stats (Oclick_parallel.Runner.pool_stats runner);
      match obs_shards with
      | None -> ()
      | Some shards ->
          let merged = Oclick_obs.create ?trace ~recycles:pool () in
          (* The instantiated graph is the partition's transformed graph
             (inserted queue/unqueue stages included), not the source. *)
          let part = Oclick_parallel.Runner.partition runner in
          set_meta merged part.Oclick_parallel.Partition.pt_graph;
          Array.iter (fun o -> Oclick_obs.merge_into ~src:o ~dst:merged) shards;
          print_obs ~driver ~rounds ~batch ~report ~report_json
            ~warnings:(List.rev !warnings) merged

let run rounds stats batch pool compile fuse fault fault_seed domains
    ring_capacity watchdog_ms profile_partition writes reads report
    report_json trace input =
  if rounds < 0 then Tool_common.die "bad --rounds %d (must be >= 0)" rounds;
  if batch < 1 then Tool_common.die "bad --batch %d (must be at least 1)" batch;
  if domains < 1 then
    Tool_common.die "bad --domains %d (must be at least 1)" domains;
  if ring_capacity < 1 then
    Tool_common.die "bad --ring-capacity %d (must be at least 1)" ring_capacity;
  if watchdog_ms < 1 then
    Tool_common.die "bad --watchdog-ms %d (must be at least 1)" watchdog_ms;
  if domains > 1 && fault <> None then
    Tool_common.die
      "--fault requires --domains 1 (injection streams are sequential)";
  if profile_partition && domains < 2 then
    Tool_common.die
      "--profile-partition requires --domains > 1 (there is no placement \
       to weight)";
  (match trace with
  | Some n when n < 1 ->
      Tool_common.die "bad --trace %d (must be at least 1)" n
  | _ -> ());
  let source = Tool_common.read_input input in
  let router = Tool_common.parse_router source in
  let devices =
    List.map
      (fun d ->
        (new Oclick_runtime.Netdevice.queue_device d ()
          :> Oclick_runtime.Netdevice.t))
      (device_names router)
  in
  if domains > 1 then
    run_parallel ~rounds ~stats ~batch ~pool ~compile ~fuse ~domains
      ~ring_capacity ~watchdog_ms ~profile_partition ~writes ~reads ~report
      ~report_json ~trace router devices
  else begin
  let injector =
    match fault with
    | None -> None
    | Some spec -> (
        match Oclick_fault.Plan.parse ?seed:fault_seed spec with
        | Ok plan -> Some (Oclick_fault.Injector.create plan)
        | Error e -> Tool_common.die "bad --fault spec: %s" e)
  in
  let mangle =
    Option.map
      (fun inj p -> Oclick_fault.Injector.mangle_wire inj ~stream:"run" p)
      injector
  in
  let quarantine =
    Option.map
      (fun inj -> (Oclick_fault.Injector.plan inj).Oclick_fault.Plan.p_quarantine)
      injector
  in
  let drops : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let warnings = ref [] in
  let hooks =
    {
      Oclick_runtime.Hooks.null with
      Oclick_runtime.Hooks.on_drop =
        (fun ~idx:_ ~cls:_ ~reason _ ->
          match Hashtbl.find_opt drops reason with
          | Some r -> incr r
          | None -> Hashtbl.replace drops reason (ref 1));
      on_warn =
        (fun ~src msg ->
          warnings := Printf.sprintf "%s: %s" src msg :: !warnings;
          Printf.eprintf "warning: %s: %s\n" src msg);
    }
  in
  let pool =
    if pool then Some (Oclick_packet.Packet.Pool.create ()) else None
  in
  (* The observability layer wraps the drop-counting hooks only when
     asked for, so plain runs keep the bare hot path. Cost column is
     wall-clock ns (no cost model outside the testbed). *)
  let obs =
    if report || report_json || trace <> None then
      Some (Oclick_obs.create ?trace ~recycles:(pool <> None) ())
    else None
  in
  let hooks =
    match obs with
    | None -> hooks
    | Some o ->
        let t0 = Unix.gettimeofday () in
        let now () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
        Oclick_obs.hooks ~now ~wall:true o hooks
  in
  (* Live runs age element state (ARP cache, rewriter flows) on the wall
     clock, in ns since process start. *)
  let t0 = Unix.gettimeofday () in
  let clock () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  match
    Oclick_runtime.Driver.instantiate ~hooks ~devices ?mangle ?quarantine
      ~batch ?pool ~compile ~fuse ~clock router
  with
  | Error e -> Tool_common.die "%s" e
  | Ok driver ->
      (match obs with None -> () | Some o -> set_meta o router);
      apply_writes driver writes;
      Oclick_runtime.Driver.run driver ~rounds;
      apply_reads driver reads;
      if stats then print_stats driver;
      (match injector with
      | None -> ()
      | Some inj ->
          let pair (k, v) = Printf.sprintf "%s=%d" k v in
          Printf.printf "faults injected: %s\n"
            (match Oclick_fault.Injector.counters inj with
            | [] -> "none"
            | cs -> String.concat ", " (List.map pair cs));
          let dropped =
            Hashtbl.fold (fun k r acc -> (k, !r) :: acc) drops []
            |> List.sort compare
          in
          if dropped <> [] then
            Printf.printf "drops: %s\n"
              (String.concat ", " (List.map pair dropped));
          List.iter
            (fun (name, faults, quarantined) ->
              Printf.printf "element %s: %d fault%s contained%s\n" name faults
                (if faults = 1 then "" else "s")
                (if quarantined then " (quarantined)" else ""))
            (Oclick_runtime.Driver.fault_report driver));
      (match pool with
      | Some pl when stats ->
          print_pool_stats (Oclick_packet.Packet.Pool.stats pl)
      | _ -> ());
      match obs with
      | None -> ()
      | Some o ->
          print_obs ~driver ~rounds ~batch ~report ~report_json
            ~warnings:(List.rev !warnings) o
  end

let rounds_arg =
  Arg.(
    value & opt int 1000
    & info [ "rounds" ] ~docv:"N"
        ~doc:
          "Scheduler rounds to run. With $(b,--domains) > 1 this bounds \
           the $(i,working) rounds per domain instead; the run stops \
           early once every shard quiesces.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print element statistics.")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Transfer batch size. With $(docv) > 1 device polling hands up \
           to $(docv) packets per task through the batched push/pull path; \
           1 (the default) runs the scalar path everywhere.")

let pool_arg =
  Arg.(
    value & flag
    & info [ "pool" ]
        ~doc:
          "Allocate packets from a recycling free-list pool of 2048-byte \
           buffers: dropped and transmitted packets return to the pool and \
           later allocations reuse their buffers with no copying (see \
           README). With $(b,--domains) > 1 each domain gets a private \
           pool, and packets crossing domains are recycled into the \
           receiving domain's pool.")

let compile_arg =
  Arg.(
    value & flag
    & info [ "compile" ]
        ~doc:
          "Run the whole-graph datapath compiler after instantiation: \
           push connections become direct-call closures and fusable \
           element chains collapse into per-packet functions. Semantics \
           (outcomes, drop reasons, reports) are identical to the \
           interpreted path; composes with $(b,--batch), $(b,--pool) and \
           $(b,--fault).")

let fuse_arg =
  Arg.(
    value & flag
    & info [ "fuse" ]
        ~doc:
          "Run the cross-element FDD fusion pass inside compilation \
           (implies $(b,--compile)): whole push regions of classifiers, \
           paint writes/switches, header guards and route lookups \
           collapse into one decision-diagram closure per region. \
           Outcomes, drop reasons and reports stay identical; composes \
           with $(b,--batch), $(b,--pool) and $(b,--domains). With \
           $(b,--fault), regions crossing a wire-mangled transfer fall \
           back to per-element compiled closures.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Fault-injection plan, e.g. $(b,corrupt=0.01,truncate=0.005). \
           In-flight wire faults apply to every packet transfer; faulting \
           elements are contained and quarantined per the plan. A summary \
           prints on exit.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Override the fault plan's random seed.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard the router across $(docv) OCaml domains. The flattened \
           graph is partitioned at Queue boundaries (inserting \
           queue/unqueue stages where a source region meets the shared \
           core), cut Queues become lock-free single-producer rings, and \
           each shard runs its own scheduler until the whole router \
           quiesces. Incompatible with $(b,--fault).")

let ring_capacity_arg =
  Arg.(
    value & opt int 128
    & info [ "ring-capacity" ] ~docv:"N"
        ~doc:
          "Capacity of the SPSC rings backing queue/unqueue stages the \
           partitioner inserts (cut Queues that already existed keep \
           their configured capacity). A full ring drops like a full \
           Queue; size it above the expected burst for loss-free runs. \
           Only meaningful with $(b,--domains) > 1.")

let watchdog_ms_arg =
  Arg.(
    value & opt int 1000
    & info [ "watchdog-ms" ] ~docv:"MS"
        ~doc:
          "Watchdog deadline for $(b,--domains) > 1: a domain whose \
           heartbeat stops for $(docv) milliseconds of wall time is \
           declared stalled, the healthy domains stop waiting for it, \
           its inbound rings are drained into accounted drops, and the \
           run reports degraded instead of hanging.")

let profile_partition_arg =
  Arg.(
    value & flag
    & info [ "profile-partition" ]
        ~doc:
          "Before partitioning, run the configuration once on a single \
           domain with per-element wall-clock profiling (over throwaway \
           devices), and balance the shards by the measured per-element \
           cost instead of element counts. Requires $(b,--domains) > 1.")

let write_arg =
  Arg.(
    value & opt_all string []
    & info [ "write" ] ~docv:"ELEMENT.HANDLER=VALUE"
        ~doc:"Invoke a write handler before running (repeatable).")

let read_arg =
  Arg.(
    value & opt_all string []
    & info [ "read" ] ~docv:"ELEMENT.HANDLER"
        ~doc:"Print a read handler after running (repeatable).")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the per-element breakdown table after running: packets \
           in/out, drops, and wall-clock cost attribution per element.")

let report_json_arg =
  Arg.(
    value & flag
    & info [ "report-json" ]
        ~doc:"Like $(b,--report), as a JSON object on standard output.")

let trace_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace" ] ~docv:"N"
        ~doc:
          "Keep the last $(docv) packet events (transfers, drops, spawns) \
           in a ring buffer and dump them after running.")

let () =
  Tool_common.run_tool "oclick-run"
    "Run a Click configuration in the user-level driver."
    Term.(
      const run $ rounds_arg $ stats_arg $ batch_arg $ pool_arg $ compile_arg
      $ fuse_arg $ fault_arg $ fault_seed_arg $ domains_arg $ ring_capacity_arg
      $ watchdog_ms_arg $ profile_partition_arg $ write_arg $ read_arg
      $ report_arg $ report_json_arg $ trace_arg $ Tool_common.input_arg)
