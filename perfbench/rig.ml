(* One datapath instance per mode, driven closed-loop by bursts: inject a
   burst through queue devices, run the router until idle, drain every
   device, then check each frame and each accounted drop against the
   workload's expected outcomes. Only inject, run, drain, recycle and
   route updates are timed; the check is not. *)

module Driver = Oclick_runtime.Driver
module Netdevice = Oclick_runtime.Netdevice
module Hooks = Oclick_runtime.Hooks
module Packet = Oclick_packet.Packet
module Pool = Packet.Pool

type mode =
  | Interp
  | Interp_batch
  | Compiled
  | Fused
  | Fused_batch
  | Fused_batch_obs
  | Toolchain

let modes =
  [ Interp; Interp_batch; Compiled; Fused; Fused_batch; Fused_batch_obs; Toolchain ]

let mode_name = function
  | Interp -> "interp"
  | Interp_batch -> "interp_batch"
  | Compiled -> "compiled"
  | Fused -> "fused"
  | Fused_batch -> "fused_batch"
  | Fused_batch_obs -> "fused_batch_obs"
  | Toolchain -> "toolchain"

let batch_of = function
  | Interp_batch | Fused_batch | Fused_batch_obs -> 32
  | Interp | Compiled | Fused | Toolchain -> 1

let compile_of = function Compiled -> true | _ -> false

let fuse_of = function
  | Fused | Fused_batch | Fused_batch_obs -> true
  | Interp | Interp_batch | Compiled | Toolchain -> false

let pool_capacity = 1024

type t = {
  mode : mode;
  driver : Driver.t;
  devs : Netdevice.queue_device array;
  pool : Pool.t option;
  tally : (string, int ref) Hashtbl.t;  (** accounted drops by reason *)
  outs : Packet.t array;  (** drained frames of the current burst *)
  out_dev : int array;
  sigs : int array;
  sorted : (int, int array) Hashtbl.t;  (** sort buffers, by length *)
  frame : Bytes.t;  (** copy of the frame being checked *)
  scratch : Packet.t array;
  mutable nouts : int;
}

let run_until_idle t = ignore (Driver.run_until_idle t.driver)

let drop_hooks tally =
  {
    Hooks.null with
    Hooks.on_drop =
      (fun ~idx:_ ~cls:_ ~reason _ ->
        match Hashtbl.find_opt tally reason with
        | Some r -> incr r
        | None -> Hashtbl.replace tally reason (ref 1));
  }

let write t element handler value =
  match Driver.element t.driver element with
  | None -> failwith ("no element " ^ element)
  | Some e -> (
      match e#write_handler handler value with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "write %s.%s %S: %s" element handler value msg))

(* Hooks count drops by reason, as oclick-run's do; the observed mode
   adds the wall-clock ledger of oclick-run --report on top. *)
let create ~(w : Gen.t) ~graph mode =
  let devs =
    Array.init w.w_ndevs (fun i ->
        new Netdevice.queue_device (Printf.sprintf "eth%d" i) ())
  in
  let devices = Array.to_list (Array.map (fun d -> (d :> Netdevice.t)) devs) in
  let batch = batch_of mode and compile = compile_of mode and fuse = fuse_of mode in
  let pooled = batch > 1 in
  let tally = Hashtbl.create 8 in
  let hooks =
    if mode = Fused_batch_obs then
      let t0 = Spans.now_ns () in
      Oclick_obs.hooks
        ~now:(fun () -> Spans.now_ns () - t0)
        ~wall:true
        (Oclick_obs.create ~recycles:pooled ())
        (drop_hooks tally)
    else drop_hooks tally
  in
  let pool = if pooled then Some (Pool.create ~capacity:pool_capacity ()) else None in
  let driver =
    match Driver.instantiate ~hooks ~devices ~batch ?pool ~compile ~fuse graph with
    | Ok d -> d
    | Error e -> failwith (mode_name mode ^ ": " ^ e)
  in
  let cap = 4 * Gen.burst in
  {
    mode;
    driver;
    devs;
    pool;
    tally;
    outs = Array.make cap (Packet.create 0);
    out_dev = Array.make cap 0;
    sigs = Array.make cap 0;
    sorted = Hashtbl.create 16;
    frame = Bytes.create 2048;
    scratch = Array.make 64 (Packet.create 0);
    nouts = 0;
  }

let reset_tallies t = Hashtbl.iter (fun _ r -> r := 0) t.tally
let tally_of t reason = match Hashtbl.find_opt t.tally reason with Some r -> !r | None -> 0
let tally_total t = Hashtbl.fold (fun _ r a -> a + !r) t.tally 0

(* --- one burst, in timed pieces ---------------------------------------- *)

let inject t (w : Gen.t) (templates : Packet.t array) b =
  for i = b * Gen.burst to ((b + 1) * Gen.burst) - 1 do
    let tpl = templates.(i) in
    let len = Packet.length tpl in
    let p = match t.pool with Some pl -> Pool.alloc pl len | None -> Packet.create len in
    Packet.blit ~src:tpl ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
    t.devs.(w.w_ingress.(i))#inject p
  done

let drain t =
  t.nouts <- 0;
  Array.iteri
    (fun d dev ->
      let rec loop () =
        let k = dev#collect_into t.scratch in
        if k > 0 then begin
          if t.nouts + k > Array.length t.outs then failwith "drain: too many frames";
          Array.blit t.scratch 0 t.outs t.nouts k;
          Array.fill t.out_dev t.nouts k d;
          t.nouts <- t.nouts + k;
          if k = Array.length t.scratch then loop ()
        end
      in
      loop ())
    t.devs

let recycle t =
  match t.pool with
  | None -> ()
  | Some pl ->
      for i = 0 to t.nouts - 1 do
        Pool.recycle pl t.outs.(i)
      done

(* Packets whose outcome differs from the oracle's, in this burst. *)
let check t (w : Gen.t) b =
  let n = t.nouts in
  for i = 0 to n - 1 do
    let p = t.outs.(i) in
    let len = Packet.length p in
    for j = 0 to len - 1 do
      Bytes.unsafe_set t.frame j (Char.unsafe_chr (Packet.get_u8 p j))
    done;
    t.sigs.(i) <- Gen.frame_sig ~dev:t.out_dev.(i) t.frame len
  done;
  let got =
    match Hashtbl.find_opt t.sorted n with
    | Some a -> a
    | None ->
        let a = Array.make n 0 in
        Hashtbl.replace t.sorted n a;
        a
  in
  Array.blit t.sigs 0 got 0 n;
  Array.sort compare got;
  let want = w.w_expect.(b) in
  let rec merge i j missing extra =
    if i = Array.length want then (missing, extra + (n - j))
    else if j = n then (missing + (Array.length want - i), extra)
    else
      let c = compare want.(i) got.(j) in
      if c = 0 then merge (i + 1) (j + 1) missing extra
      else if c < 0 then merge (i + 1) j (missing + 1) extra
      else merge i (j + 1) missing (extra + 1)
  in
  let missing, extra = merge 0 0 0 0 in
  let expected_drops = w.w_drops.(b) in
  let drop_diff =
    List.fold_left
      (fun acc (reason, k) -> acc + abs (tally_of t reason - k))
      0 expected_drops
  in
  let unexpected =
    tally_total t - List.fold_left (fun acc (r, _) -> acc + tally_of t r) 0 expected_drops
  in
  min Gen.burst (max missing extra + drop_diff + unexpected)

(* --- set-up ------------------------------------------------------------ *)

(* Teach every ARPQuerier its neighbours with unsolicited replies, then
   install the workload's initial routes. *)
let prime t (w : Gen.t) =
  let module Headers = Oclick_packet.Headers in
  let eth m = Oclick_packet.Ethaddr.of_string_exn (Gen.mac_to_string m) in
  reset_tallies t;
  List.iter
    (fun (dev, ip, mac) ->
      t.devs.(dev)#inject
        (Headers.Build.arp_reply ~src_eth:(eth mac) ~src_ip:ip
           ~dst_eth:(eth (Gen.router_mac dev)) ~dst_ip:(Gen.router_ip dev)))
    w.w_arp;
  run_until_idle t;
  drain t;
  let consumed = tally_of t "ARP response consumed" in
  if t.nouts <> 0 || consumed <> List.length w.w_arp then
    failwith
      (Printf.sprintf "%s: ARP priming: %d frames out, %d of %d replies consumed"
         (mode_name t.mode) t.nouts consumed (List.length w.w_arp));
  List.iter (fun (r, _) -> write t "rt" "add" r) w.w_initial;
  reset_tallies t

(* Inject one frame the oracle forwards and wait for it: the end of
   set-up. *)
let first_forward t (w : Gen.t) (templates : Packet.t array) =
  let i = w.w_first_fwd in
  let p = Packet.clone templates.(i) in
  t.devs.(w.w_ingress.(i))#inject p;
  run_until_idle t;
  drain t;
  if t.nouts <> 1 then
    failwith
      (Printf.sprintf "set-up: the first frame was not forwarded (%d out; drops: %s)"
         t.nouts
         (String.concat ", "
            (Hashtbl.fold (fun r n acc -> Printf.sprintf "%s=%d" r !n :: acc) t.tally [])));
  t.nouts <- 0;
  reset_tallies t

(* --- the measured loop --------------------------------------------------- *)

module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0);
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type stats = {
  mutable packets : int;  (** offered in measured bursts *)
  mutable failed : int;  (** over every burst, warm-up included *)
  mutable checked : int;  (** packets checked, warm-up included *)
  windows : Ints.t;  (** per window: picoseconds per packet *)
  traced_windows : Ints.t;  (** the same, for windows recorded as spans *)
  bursts : Ints.t;  (** per burst: service time, ns *)
  mutable inject_ns : int;
  mutable run_ns : int;
  mutable drain_ns : int;
  mutable update_ns : int;
  mutable minor_words : float;
}

let window_bursts = 32
let warmup_bursts = 8

(* A rig being measured: its stream position, its statistics and its
   span names. *)
type meter = {
  rig : t;
  w : Gen.t;
  templates : Packet.t array;
  spans : Spans.t;
  st : stats;
  mutable pos : int;
  mutable nwin : int;
  alternate : bool;
  names : string array;  (** burst, update, inject, run, drain, recycle *)
}

let one_burst m ~measured =
  let t = m.rig and w = m.w and st = m.st and spans = m.spans in
  let b = m.pos mod Gen.nbursts in
  m.pos <- m.pos + 1;
  let sp = Spans.enter spans m.names.(0) in
  let mw0 = Gc.minor_words () in
  let tu0 = Spans.now_ns () in
  (match w.w_updates.(b) with
  | Some u ->
      write t "rt" "add" u.Gen.up_add;
      write t "rt" "remove" u.Gen.up_remove
  | None -> ());
  let t0 = Spans.now_ns () in
  inject t w m.templates b;
  let t1 = Spans.now_ns () in
  run_until_idle t;
  let t2 = Spans.now_ns () in
  drain t;
  let t3 = Spans.now_ns () in
  let mw1 = Gc.minor_words () in
  let failed = check t w b in
  let mw2 = Gc.minor_words () in
  let t4 = Spans.now_ns () in
  recycle t;
  let t5 = Spans.now_ns () in
  let mw3 = Gc.minor_words () in
  reset_tallies t;
  if w.w_updates.(b) <> None then Spans.record spans m.names.(1) ~start:tu0 ~stop:t0;
  Spans.record spans m.names.(2) ~start:t0 ~stop:t1;
  Spans.record spans m.names.(3) ~start:t1 ~stop:t2;
  Spans.record spans m.names.(4) ~start:t2 ~stop:t3;
  Spans.record spans m.names.(5) ~start:t4 ~stop:t5;
  Spans.leave spans sp;
  st.failed <- st.failed + failed;
  st.checked <- st.checked + Gen.burst;
  let service = (t3 - tu0) + (t5 - t4) in
  if measured then begin
    st.packets <- st.packets + Gen.burst;
    Ints.push st.bursts service;
    st.update_ns <- st.update_ns + (t0 - tu0);
    st.inject_ns <- st.inject_ns + (t1 - t0);
    st.run_ns <- st.run_ns + (t2 - t1);
    st.drain_ns <- st.drain_ns + (t3 - t2) + (t5 - t4);
    st.minor_words <- st.minor_words +. (mw1 -. mw0) +. (mw3 -. mw2)
  end;
  service

(* Warm a rig up. [alternate] records every other window as spans and
   the rest untraced, so a traced run can price its own spans. *)
let meter rig w templates ~spans ~alternate =
  let name = mode_name rig.mode in
  let m =
    {
      rig; w; templates; spans; pos = 0; nwin = 0; alternate;
      names =
        Array.map (fun s -> name ^ "/" ^ s)
          [| "burst"; "update"; "inject"; "run"; "drain"; "recycle" |];
      st =
        {
          packets = 0; failed = 0; checked = 0;
          windows = Ints.create (); traced_windows = Ints.create ();
          bursts = Ints.create ();
          inject_ns = 0; run_ns = 0; drain_ns = 0; update_ns = 0;
          minor_words = 0.0;
        };
    }
  in
  let tracing = spans.Spans.enabled in
  spans.Spans.enabled <- false;
  for _ = 1 to warmup_bursts do
    ignore (one_burst m ~measured:false)
  done;
  spans.Spans.enabled <- tracing;
  m

(* One measured window of [window_bursts] bursts. It starts on an empty
   minor heap, so a mode pays for the collections its own allocation
   triggers and not for the garbage the other modes left behind, and
   after one unmeasured burst, which pays for the caches the other
   modes' windows took over. *)
let window m =
  Gc.minor ();
  ignore (one_burst m ~measured:false);
  let spans = m.spans in
  let tracing = spans.Spans.enabled in
  let traced = tracing && ((not m.alternate) || m.nwin land 1 = 1) in
  spans.Spans.enabled <- traced;
  let ns = ref 0 in
  for _ = 1 to window_bursts do
    ns := !ns + one_burst m ~measured:true
  done;
  spans.Spans.enabled <- tracing;
  let st = m.st in
  let ps_per_pkt = !ns * 1000 / (window_bursts * Gen.burst) in
  Ints.push (if m.alternate && traced then st.traced_windows else st.windows) ps_per_pkt;
  m.nwin <- m.nwin + 1

(* Minor and major collections per million packets when the mode runs
   alone for [bursts] bursts, with no window resets: the collections its
   own allocation (and the check's) triggers. *)
let solo_gc m ~bursts =
  let gc0 = Gc.quick_stat () in
  for _ = 1 to bursts do
    ignore (one_burst m ~measured:false)
  done;
  let gc1 = Gc.quick_stat () in
  let per x = float_of_int x *. 1e6 /. float_of_int (bursts * Gen.burst) in
  ( per (gc1.Gc.minor_collections - gc0.Gc.minor_collections),
    per (gc1.Gc.major_collections - gc0.Gc.major_collections) )
