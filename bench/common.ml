(* Shared setup for the benchmark harness: reference configurations,
   optimization variants, MR context, and table formatting. *)

module Router = Oclick_graph.Router
module Platform = Oclick_hw.Platform
module Testbed = Oclick_hw.Testbed
module Ethaddr = Oclick_packet.Ethaddr

let () = Oclick_elements.register_all ()

let base_graph n =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces n))

let simple_graph n =
  let pairs =
    if n >= 4 then List.init (n / 2) (fun i ->
        (Printf.sprintf "eth%d" i, Printf.sprintf "eth%d" (i + (n / 2))))
    else [ ("eth0", "eth1"); ("eth1", "eth0") ]
  in
  Oclick.Ip_router.graph (Oclick.Ip_router.simple_config pairs)

(* The MR context: the attached hosts described as Click configurations,
   and the point-to-point links, for click-combine (§7.2). *)
let mr_context n =
  let interfaces = Oclick.Ip_router.standard_interfaces n in
  let hosts =
    List.mapi
      (fun i (itf : Oclick.Ip_router.interface) ->
        let eth =
          Ethaddr.of_string_exn (Printf.sprintf "00:00:c0:bb:%02x:02" i)
        in
        ( Printf.sprintf "host%d" i,
          Oclick.Ip_router.graph
            (Oclick.Ip_router.host_config ~ip:(itf.if_net + 2) ~eth) ))
      interfaces
  in
  let links =
    List.concat
      (List.mapi
         (fun i (itf : Oclick.Ip_router.interface) ->
           let h = Printf.sprintf "host%d" i in
           [
             {
               Oclick_optim.Combine.lk_from_router = "router";
               lk_from_device = itf.if_device;
               lk_to_router = h;
               lk_to_device = "eth0";
             };
             {
               Oclick_optim.Combine.lk_from_router = h;
               lk_from_device = "eth0";
               lk_to_router = "router";
               lk_to_device = itf.if_device;
             };
           ])
         interfaces)
  in
  (hosts, links)

let variant_graph ?(n = 8) variant =
  let hosts, links = mr_context n in
  Oclick.Pipeline.optimize ~hosts ~links variant (base_graph n)

let run_testbed ?duration_ms ?warmup_ms ~platform ~graph input_pps =
  match
    Testbed.run ?duration_ms ?warmup_ms ~platform ~graph ~input_pps ()
  with
  | Ok r -> r
  | Error e -> failwith ("testbed: " ^ e)

let mlffr ~platform graph =
  match Testbed.mlffr ~platform ~graph () with
  | Ok v -> v
  | Error e -> failwith ("mlffr: " ^ e)

(* --- harness modes ----------------------------------------------------- *)

(* Set by main.ml from the command line. [smoke] caps the packet budget so
   the whole section finishes in well under a second (the @bench-smoke
   alias); [json] mirrors each supporting section's results into
   BENCH_<section>.json next to the terminal table. *)
let smoke = ref false
let json = ref false

(* Write BENCH_<section>.json in the current directory when --json is on. *)
let write_json ~section v =
  if !json then begin
    let file = Printf.sprintf "BENCH_%s.json" section in
    let oc = open_out file in
    output_string oc (Oclick_obs.Json.to_string v);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* --- timing windows ---------------------------------------------------- *)

type windows = {
  w_reps : int;
  w_forwarded : int;  (** packets forwarded in the best window *)
  w_seconds : float;  (** wall-clock duration of the best window *)
  w_pps : float;  (** forwarded/seconds of the best window *)
  w_total_forwarded : int;  (** summed over every window *)
}

(* Best-of-[reps] wall-clock measurement: [window ()] runs one full
   repetition of the workload and returns the packets it forwarded; the
   repetition with the best per-packet time is reported. Wall-clock
   ratios on shared machines are noisy, and the best window is the one
   least disturbed by the scheduler — the quantity every
   variant-vs-variant comparison in this harness needs. *)
let best_of_windows ~reps window =
  let reps = max 1 reps in
  let total = ref 0 in
  let best = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let fwd = window () in
    let dt = Unix.gettimeofday () -. t0 in
    total := !total + fwd;
    let pps = if dt > 0.0 then float_of_int fwd /. dt else 0.0 in
    match !best with
    | Some (_, _, p) when p >= pps -> ()
    | _ -> best := Some (fwd, dt, pps)
  done;
  let fwd, dt, pps = Option.get !best in
  {
    w_reps = reps;
    w_forwarded = fwd;
    w_seconds = dt;
    w_pps = pps;
    w_total_forwarded = !total;
  }

(* --- output helpers --------------------------------------------------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

let row fmt = Printf.printf fmt
let kpps v = v /. 1000.0
