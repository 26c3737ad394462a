(* Seeded workloads for the layered benchmark.

   A workload is a router configuration, a stream of Ethernet frames cut
   into bursts, and for every burst the outcome an independent model of
   the router predicts: the signature of every frame that must leave each
   device, and the number of accounted drops per reason. The model never
   touches the router's own lookup code: routes live in one hash table
   per prefix length, and expected frames are rewritten here byte by
   byte. The same seed gives the same workload, byte for byte. *)

module Routegen = Oclick_lpm.Routegen

type kind = Iprouter | Cascade | Churn

let kind_of_string = function
  | "iprouter" -> Some Iprouter
  | "cascade" -> Some Cascade
  | "churn" -> Some Churn
  | _ -> None

let burst = 256
let nbursts = 64
let nports = 8
let nroutes = 100_000
let neighbours_per_port = 4
let stages = 12

(* Packets between two route updates on [churn]. *)
let update_every = 1024

type update = {
  up_add : string;  (** write handler values for the route element *)
  up_remove : string;
  up_route : int * int * int * int;  (** the added route: addr, len, gw, port *)
  up_removed : int * int;  (** the removed prefix: addr, len *)
}

type t = {
  w_kind : kind;
  w_config : string;
  w_ndevs : int;
  w_frames : string array;  (** the stream, in injection order *)
  w_ingress : int array;  (** device each frame enters on *)
  w_expect : int array array;
      (** per burst: sorted signatures of the frames that must egress *)
  w_drops : (string * int) list array;  (** per burst: drops by reason *)
  w_updates : update option array;
      (** per burst: the route writes applied just before it *)
  w_initial : (string * (int * int * int * int)) list;
      (** route adds applied once after set-up, as written and as a route *)
  w_arp : (int * int * int) list;  (** primed neighbours: device, ip, mac *)
  w_classifiers : string list;
      (** Classifier configs a frame meets, in order; a frame walks on
          while it leaves by output 0 *)
  w_dsts : int array;  (** per frame: the address looked up, -1 if none *)
  w_ip_headers : int array;  (** per frame: IP headers checksummed *)
  w_routes : (int * int * int * int) array;
      (** the routing table as configured: addr, length, gateway, port *)
  w_first_fwd : int;  (** the first frame the oracle forwards unchanged in kind *)
}

let npackets w = Array.length w.w_frames

(* --- addresses ------------------------------------------------------- *)

let router_ip port = 0x0a000001 lor (port lsl 8)
let router_mac port = 0x0000c0000001 lor (port lsl 8)
let nb_ip port k = 0x0a000002 lor (port lsl 8) + k
let nb_mac port k = 0x020000000000 lor (port lsl 8) lor k

let ip_to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff) (a land 0xff)

let mac_to_string m =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" ((m lsr (8 * (5 - i))) land 0xff)))

(* --- the oracle: longest-prefix match over one hash table per length - *)

module Oracle = struct
  type t = (int, int * int) Hashtbl.t array  (** addr -> (gw, port) *)

  let create () : t = Array.init 33 (fun _ -> Hashtbl.create 64)
  let mask len = if len = 0 then 0 else (0xffff_ffff lsl (32 - len)) land 0xffff_ffff

  (* First declared wins, as in the router's table. *)
  let add (t : t) ~addr ~len ~gw ~port =
    let a = addr land mask len in
    if Hashtbl.mem t.(len) a then false
    else (Hashtbl.replace t.(len) a (gw, port); true)

  let remove (t : t) ~addr ~len = Hashtbl.remove t.(len) (addr land mask len)

  let lookup (t : t) dst =
    let rec go len =
      if len < 0 then None
      else
        match Hashtbl.find_opt t.(len) (dst land mask len) with
        | Some r -> Some r
        | None -> go (len - 1)
    in
    go 32
end

(* --- frames and signatures --------------------------------------------- *)

let set16 b o v = Bytes.set_uint16_be b o (v land 0xffff)

let set_mac b o m =
  set16 b o (m lsr 32);
  set16 b (o + 2) (m lsr 16);
  set16 b (o + 4) m

let ip_checksum b =
  let s = ref 0 in
  for i = 0 to 9 do
    if i <> 5 then s := !s + Bytes.get_uint16_be b (14 + (2 * i))
  done;
  let s = (!s land 0xffff) + (!s lsr 16) in
  let s = (s land 0xffff) + (s lsr 16) in
  lnot s land 0xffff

(* An Ethernet/IPv4/UDP frame of [len] bytes; the UDP checksum is left 0,
   which IPv4 allows. *)
let udp_frame ~len ~dst_mac ~src_mac ~src ~dst ~ttl ~ident ~sport ~dport =
  let b = Bytes.make len '\000' in
  set_mac b 0 dst_mac;
  set_mac b 6 src_mac;
  set16 b 12 0x0800;
  Bytes.set_uint8 b 14 0x45;
  set16 b 16 (len - 14);
  set16 b 18 ident;
  Bytes.set_uint8 b 22 ttl;
  Bytes.set_uint8 b 23 17;
  set16 b 26 (src lsr 16);
  set16 b 28 src;
  set16 b 30 (dst lsr 16);
  set16 b 32 dst;
  set16 b 34 sport;
  set16 b 36 dport;
  set16 b 38 (len - 34);
  for i = 42 to len - 1 do
    Bytes.set_uint8 b i ((ident + i) land 0xff)
  done;
  set16 b 24 (ip_checksum b);
  b

let fnv_init = 0x0bf29ce484222325
let fnv h x = (h lxor (x land 0xff)) * 0x100000001b3 land max_int

let mix h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv !h (v lsr (8 * i))
  done;
  !h

(* ICMP errors are identified by what the model can know of them: where
   they leave, whom they are for, their type and code, and the ident of
   the datagram they quote. Every other frame is identified by its
   bytes. *)
let icmp_sig ~dev ~dst_mac ~dst_ip ~typ ~code ~ident =
  List.fold_left mix (mix fnv_init 1) [ dev; dst_mac; dst_ip; typ; code; ident ]

(* Signature of the first [len] bytes of [b], a frame leaving device
   [dev]; used on both sides of every comparison, so the oracle and the
   datapath meet in one function. *)
let frame_sig ~dev b len =
  let u16 o = Bytes.get_uint16_be b o in
  if len >= 48 && u16 12 = 0x0800 && Bytes.get_uint8 b 23 = 1 then
    icmp_sig ~dev
      ~dst_mac:((u16 0 lsl 32) lor (u16 2 lsl 16) lor u16 4)
      ~dst_ip:((u16 30 lsl 16) lor u16 32)
      ~typ:(Bytes.get_uint8 b 34) ~code:(Bytes.get_uint8 b 35) ~ident:(u16 46)
  else begin
    let h = ref (mix (mix fnv_init 0) dev) in
    for i = 0 to len - 1 do
      h := fnv !h (Bytes.get_uint8 b i)
    done;
    !h
  end

let bytes_frame_sig ~dev b = frame_sig ~dev b (Bytes.length b)

(* What the Figure 1 path does to a forwarded frame: new Ethernet
   addresses, TTL minus one, and the RFC 1141 incremental checksum
   update that DecIPTTL specifies. *)
let forwarded ~frame ~dst_mac ~src_mac =
  let b = Bytes.copy frame in
  set_mac b 0 dst_mac;
  set_mac b 6 src_mac;
  Bytes.set_uint8 b 22 (Bytes.get_uint8 b 22 - 1);
  let sum = Bytes.get_uint16_be b 24 + 0x0100 in
  set16 b 24 ((sum + (sum lsr 16)) land 0xffff);
  b

(* --- per-packet expectations ------------------------------------------ *)

type expect = { ex_sigs : int list; ex_drops : string list }

let collate ~frames ~expects ~updates =
  let nb = Array.length frames / burst in
  let w_expect =
    Array.init nb (fun b ->
        let sigs =
          List.concat (List.init burst (fun i -> expects.((b * burst) + i).ex_sigs))
        in
        let a = Array.of_list sigs in
        Array.sort compare a;
        a)
  in
  let w_drops =
    Array.init nb (fun b ->
        let tbl = Hashtbl.create 4 in
        for i = 0 to burst - 1 do
          List.iter
            (fun r ->
              Hashtbl.replace tbl r
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
            expects.((b * burst) + i).ex_drops
        done;
        List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl []))
  in
  let rec first i =
    if i >= Array.length expects then invalid_arg "workload forwards nothing"
    else if expects.(i).ex_drops = [] && expects.(i).ex_sigs <> [] then i
    else first (i + 1)
  in
  (w_expect, w_drops, updates, first 0)

(* --- the IP router workloads ------------------------------------------ *)

let route_string ~addr ~len ~gw ~port =
  Printf.sprintf "%s/%d %s %d" (ip_to_string addr) len (ip_to_string gw) port

(* One burst's worth of values, each as many times as [mix] says, in
   seeded order. Every burst gets the same mix, so no burst is slow for
   what it holds and the tail of the burst times is the datapath's. *)
let burst_mix rng mix =
  let a = Array.of_list (List.concat_map (fun (v, k) -> List.init k (fun _ -> v)) mix) in
  if Array.length a <> burst then invalid_arg "burst_mix";
  for i = burst - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type role = Plain | Miss | Expire | Fresh

(* About 1% route misses and 1% expiring TTLs; on churn 5% aim at the
   current fresh route, and frames follow IMIX (64, 576 and 1500 bytes at
   7:4:1). *)
let roles kind =
  let special = [ (Miss, 3); (Expire, 3) ] in
  if kind = Churn then (Fresh, 13) :: (Plain, 237) :: special
  else (Plain, 250) :: special

let sizes kind = if kind = Churn then [ (64, 149); (576, 85); (1500, 22) ] else [ (64, burst) ]

let ip_router ~kind ~seed =
  let rng = Random.State.make [| seed; 0x1b; Hashtbl.hash kind |] in
  let oracle = Oracle.create () in
  (* Interface routes come first in the table, as Ip_router.config
     writes them: own addresses to output 0, subnets to output i+1. *)
  for p = 0 to nports - 1 do
    ignore (Oracle.add oracle ~addr:(router_ip p) ~len:32 ~gw:0 ~port:0);
    ignore (Oracle.add oracle ~addr:(router_ip p) ~len:24 ~gw:0 ~port:(p + 1))
  done;
  let base =
    Routegen.generate ~seed ~default_route:false ~n:nroutes ~nports ()
  in
  let gw_of p = nb_ip p (Random.State.int rng neighbours_per_port) in
  let routes =
    Array.map
      (fun (r : Routegen.route) ->
        let gw = gw_of r.port in
        ignore (Oracle.add oracle ~addr:r.addr ~len:r.len ~gw ~port:(r.port + 1));
        (r.addr, r.len, gw, r.port + 1))
      base
  in
  let extra =
    Array.to_list
      (Array.map (fun (addr, len, gw, port) -> route_string ~addr ~len ~gw ~port) routes)
  in
  let config =
    Oclick.Ip_router.config ~extra_routes:extra
      (Oclick.Ip_router.standard_interfaces nports)
  in
  let n = burst * nbursts in
  (* Churn: each update adds one fresh /26 and removes the previous one,
     so every pass over the stream sees the same table at the same
     point. The last fresh route is installed at set-up. *)
  let nupdates = if kind = Churn then n / update_every else 0 in
  let taken = Hashtbl.create 16 in
  let fresh =
    Array.init nupdates (fun _ ->
        let rec pick () =
          let addr =
            ((16 + Random.State.int rng 200) lsl 24)
            lor (Random.State.bits rng land 0xffffc0)
          in
          let addr = if addr lsr 24 = 10 then addr lxor 0x01000000 else addr in
          let p = Random.State.int rng nports in
          if Hashtbl.mem oracle.(26) addr || Hashtbl.mem taken addr then pick ()
          else (Hashtbl.replace taken addr (); (addr, gw_of p, p + 1))
        in
        pick ())
  in
  let add_of (addr, gw, port) = route_string ~addr ~len:26 ~gw ~port in
  let remove_of (addr, _, _) = Printf.sprintf "%s/26" (ip_to_string addr) in
  let install (addr, gw, port) =
    ignore (Oracle.add oracle ~addr ~len:26 ~gw ~port)
  in
  let uninstall (addr, _, _) = Oracle.remove oracle ~addr ~len:26 in
  let updates = Array.make nbursts None in
  let current = ref (-1) in
  if nupdates > 0 then begin
    current := nupdates - 1;
    install fresh.(nupdates - 1)
  end;
  let frames = Array.make n "" and ingress = Array.make n 0 in
  let dsts = Array.make n (-1) in
  let expects = Array.make n { ex_sigs = []; ex_drops = [] } in
  let role = ref [||] and size = ref [||] in
  for i = 0 to n - 1 do
    if i mod burst = 0 then begin
      role := burst_mix rng (roles kind);
      size := burst_mix rng (sizes kind)
    end;
    if nupdates > 0 && i mod update_every = 0 then begin
      let u = i / update_every in
      let prev = fresh.(!current) in
      install fresh.(u);
      uninstall prev;
      current := u;
      let addr, gw, port = fresh.(u) and old, _, _ = prev in
      updates.(i / burst) <-
        Some
          {
            up_add = add_of fresh.(u);
            up_remove = remove_of prev;
            up_route = (addr, 26, gw, port);
            up_removed = (old, 26);
          }
    end;
    let len = !size.(i mod burst) and role = !role.(i mod burst) in
    let dst =
      match role with
      | Miss ->
          (* No generated route starts below 16.0.0.0. *)
          ((1 + Random.State.int rng 9) lsl 24) lor (Random.State.bits rng land 0xffffff)
      | Fresh ->
          let addr, _, _ = fresh.(!current) in
          addr lor Random.State.int rng 64
      | Plain | Expire ->
          let addr, len, _, _ = routes.(Random.State.int rng nroutes) in
          let host = if len >= 32 then 0 else Random.State.bits rng land ((1 lsl (32 - len)) - 1) in
          addr lor host
    in
    let hit = Oracle.lookup oracle dst in
    let egress = match hit with Some (_, port) -> port - 1 | None -> -1 in
    let s =
      let s = Random.State.int rng (nports - 1) in
      if egress >= 0 && s >= egress then s + 1 else s
    in
    let k = Random.State.int rng neighbours_per_port in
    let ttl = if role = Expire then 1 else 64 in
    let ident = i land 0xffff in
    let frame =
      udp_frame ~len ~dst_mac:(router_mac s) ~src_mac:(nb_mac s k)
        ~src:(nb_ip s k) ~dst ~ttl ~ident
        ~sport:(1024 + Random.State.int rng 60000)
        ~dport:(1 + Random.State.int rng 65000)
    in
    frames.(i) <- Bytes.to_string frame;
    ingress.(i) <- s;
    dsts.(i) <- dst;
    expects.(i) <-
      (match hit with
      | None -> { ex_sigs = []; ex_drops = [ "no route" ] }
      | Some _ when ttl = 1 ->
          {
            ex_sigs =
              [ icmp_sig ~dev:s ~dst_mac:(nb_mac s k) ~dst_ip:(nb_ip s k) ~typ:11
                  ~code:0 ~ident ];
            ex_drops = [ "ICMP error generated" ];
          }
      | Some (gw, port) ->
          let p = port - 1 in
          let gw = if gw = 0 then dst else gw in
          let k' = gw land 0xff - 2 in
          let out = forwarded ~frame ~dst_mac:(nb_mac p k') ~src_mac:(router_mac p) in
          { ex_sigs = [ bytes_frame_sig ~dev:p out ]; ex_drops = [] })
  done;
  let w_expect, w_drops, w_updates, w_first_fwd = collate ~frames ~expects ~updates in
  {
    w_kind = kind;
    w_config = config;
    w_ndevs = nports;
    w_frames = frames;
    w_ingress = ingress;
    w_expect;
    w_drops;
    w_updates;
    w_initial =
      (if nupdates > 0 then
         let ((addr, gw, port) as r) = fresh.(nupdates - 1) in
         [ (add_of r, (addr, 26, gw, port)) ]
       else []);
    w_arp =
      List.concat
        (List.init nports (fun p ->
             List.init neighbours_per_port (fun k -> (p, nb_ip p k, nb_mac p k))));
    w_classifiers = [ "12/0806 20/0001, 12/0806 20/0002, 12/0800, -" ];
    w_dsts = dsts;
    w_ip_headers = Array.map (fun d -> if d >= 0 then 1 else 0) dsts;
    w_routes =
      Array.append
        (Array.concat
           (List.init nports (fun p ->
                [| (router_ip p, 32, 0, 0); (router_ip p land 0xffffff00, 24, 0, p + 1) |])))
        routes;
    w_first_fwd;
  }

(* --- the classifier cascade ------------------------------------------- *)

(* Twelve Classifier stages. Each re-tests five header words common to
   all of them and one payload byte of its own, so a frame can fall
   through at any stage: the byte at 42+i must read [stage_byte i]. *)
let stage_byte i = 0xa0 + i

let stage_pattern i =
  Printf.sprintf "12/0800 14/45 22/40 23/11 26/0a000002 %d/%02x" (42 + i)
    (stage_byte i)

let cascade_config () =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "pd :: PollDevice(eth0);\noutq :: Queue(200);\ntd :: ToDevice(eth1);\n";
  for i = 0 to stages - 1 do
    add "k%d :: Classifier(%s, -);\n" i (stage_pattern i)
  done;
  add "pd -> k0;\n";
  for i = 0 to stages - 2 do
    add "k%d [0] -> k%d;\nk%d [1] -> Discard;\n" i (i + 1) i
  done;
  add "k%d [0] -> outq -> td;\nk%d [1] -> Discard;\n" (stages - 1) (stages - 1);
  Buffer.contents buf

let cascade ~seed =
  let rng = Random.State.make [| seed; 0xca5 |] in
  let n = burst * nbursts in
  let frames = Array.make n "" in
  let expects = Array.make n { ex_sigs = []; ex_drops = [] } in
  let falls = ref [||] in
  for i = 0 to n - 1 do
    let dst = 0x0b000000 lor (Random.State.bits rng land 0xffffff) in
    let frame =
      udp_frame ~len:64 ~dst_mac:(router_mac 0) ~src_mac:(nb_mac 0 0)
        ~src:(nb_ip 0 0) ~dst ~ttl:64 ~ident:(i land 0xffff)
        ~sport:(1024 + Random.State.int rng 60000)
        ~dport:(1 + Random.State.int rng 65000)
    in
    if i mod burst = 0 then falls := burst_mix rng [ (true, burst / 4); (false, burst - (burst / 4)) ];
    (* A quarter of the frames fall through at a seeded stage. *)
    let fail = if !falls.(i mod burst) then Random.State.int rng stages else stages in
    for s = 0 to stages - 1 do
      let v = stage_byte s in
      Bytes.set_uint8 frame (42 + s) (if s = fail then v lxor 0xff else v)
    done;
    frames.(i) <- Bytes.to_string frame;
    expects.(i) <-
      (if fail < stages then { ex_sigs = []; ex_drops = [ "discarded" ] }
       else { ex_sigs = [ bytes_frame_sig ~dev:1 frame ]; ex_drops = [] })
  done;
  let w_expect, w_drops, w_updates, w_first_fwd =
    collate ~frames ~expects ~updates:(Array.make nbursts None)
  in
  {
    w_kind = Cascade;
    w_config = cascade_config ();
    w_ndevs = 2;
    w_frames = frames;
    w_ingress = Array.make n 0;
    w_expect;
    w_drops;
    w_updates;
    w_initial = [];
    w_arp = [];
    w_classifiers = List.init stages (fun i -> stage_pattern i ^ ", -");
    w_dsts = Array.make n (-1);
    w_ip_headers = Array.make n 0;
    w_routes = [||];
    w_first_fwd;
  }

let generate kind ~seed =
  match kind with
  | Cascade -> cascade ~seed
  | Iprouter | Churn -> ip_router ~kind ~seed

(* A digest of everything the program under test receives, plus the
   expected outcome counts, for determinism checks. *)
let digest w =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b w.w_config;
  Array.iteri
    (fun i f ->
      Buffer.add_string b (string_of_int w.w_ingress.(i));
      Buffer.add_string b f)
    w.w_frames;
  Array.iter
    (function
      | Some u -> Buffer.add_string b (u.up_add ^ "|" ^ u.up_remove)
      | None -> ())
    w.w_updates;
  List.iter (fun (s, _) -> Buffer.add_string b s) w.w_initial;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_counts w =
  let fwd = Array.fold_left (fun acc a -> acc + Array.length a) 0 w.w_expect in
  let drops = Hashtbl.create 4 in
  Array.iter
    (List.iter (fun (r, n) ->
         Hashtbl.replace drops r (n + Option.value ~default:0 (Hashtbl.find_opt drops r))))
    w.w_drops;
  (fwd, List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) drops []))
