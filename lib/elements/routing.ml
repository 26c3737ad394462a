(* LookupIPRoute: a static routing table with longest-prefix match.

   Configuration: one argument per route, "ADDR/MASK [GW] PORT", e.g.
   "18.26.4.0/24 1" or "0.0.0.0/0 18.26.4.1 1". The lookup reads the
   destination-address annotation (set by GetIPAddress) and, when the
   route has a gateway, rewrites the annotation so ARPQuerier resolves the
   gateway — exactly Click's LookupIPRoute/StaticIPLookup behaviour.

   Two backends share that contract:

   - [LookupIPRoute] / [StaticIPLookup] / [RadixIPLookup] run on the
     DIR-24-8 trie in [Oclick_lpm.Dir24_8]: 1-2 memory touches per
     lookup regardless of table size, off-heap storage, live add/remove
     through write handlers. Prefixes only (contiguous netmasks).
   - [LinearIPLookup] is the paper-era longest-prefix-sorted linear
     scan: O(table size), but it accepts non-contiguous netmasks and is
     the differential reference the trie is tested against.

   Duplicate routes (same ADDR/MASK declared twice) resolve
   first-declared-wins in both backends: the linear table got that from
   sort stability, the trie refuses re-insertion; [configure] makes it
   explicit by dropping later duplicates up front. *)

open Prelude

type route = { rt_addr : Ipaddr.t; rt_mask : Ipaddr.t; rt_gw : Ipaddr.t; rt_port : int }

let parse_route arg =
  let parts = List.filter (( <> ) "") (String.split_on_char ' ' arg) in
  match parts with
  | [ prefix; port ] -> (
      match (Ipaddr.parse_prefix prefix, Args.parse_int port) with
      | Some (addr, mask), Some port when port >= 0 ->
          Some { rt_addr = addr land mask; rt_mask = mask; rt_gw = 0; rt_port = port }
      | _ -> None)
  | [ prefix; gw; port ] -> (
      match
        (Ipaddr.parse_prefix prefix, Ipaddr.of_string gw, Args.parse_int port)
      with
      | Some (addr, mask), Some gw, Some port when port >= 0 ->
          Some { rt_addr = addr land mask; rt_mask = mask; rt_gw = gw; rt_port = port }
      | _ -> None)
  | _ -> None

(* Parse a whole config, making duplicate-prefix resolution explicit:
   the first declaration of an ADDR/MASK wins, later ones are dropped
   here so neither backend depends on incidental tie-breaking. *)
let parse_table cls config =
  let args = Args.split config in
  let parsed = List.map parse_route args in
  if List.exists Option.is_none parsed then
    Error (Printf.sprintf "%s: bad route (want ADDR/MASK [GW] PORT)" cls)
  else begin
    let seen = Hashtbl.create 64 in
    Ok
      (List.filter
         (fun r ->
           let key = (r.rt_mask lsl 32) lor r.rt_addr in
           if Hashtbl.mem seen key then false
           else begin
             Hashtbl.add seen key ();
             true
           end)
         (List.filter_map Fun.id parsed))
  end

(* The paper's implementation: longest prefix first, linear scan.
   W_lookup charges the number of entries scanned. *)
class linear_ip_lookup name =
  object (self)
    inherit E.base name
    val mutable routes : route array = [||]
    val mutable misses = 0
    method class_name = "LinearIPLookup"
    method! port_count = "1/-"
    method! processing = "h/h"

    method! configure config =
      match parse_table self#class_name config with
      | Error _ as e -> e
      | Ok rs ->
          (* Longest prefix first so a linear scan is longest-prefix
             match. *)
          let more_specific a b = Int.compare b.rt_mask a.rt_mask in
          routes <- Array.of_list (List.stable_sort more_specific rs);
          Ok ()

    (* Per-packet scans return the matching index (-1 = miss) rather
       than an option of the route — the datapath stays allocation-free
       (no [Some]/tuple box per lookup). *)
    method private scan dst =
      let n = Array.length routes in
      let rec go i =
        if i >= n then -1
        else
          let r = routes.(i) in
          if dst land r.rt_mask = r.rt_addr then i else go (i + 1)
      in
      go 0

    (* The lookup, stated once for both forms of the route sem: charge
       the entries scanned unless [lean_work] (one summed charge per
       vector: entries scanned is additive), rewrite the gateway
       annotation, account misses and unconnected drops, and give the
       output port or [Region.consumed]. Reads [routes] per call, so
       live adds/removes stay visible to compiled graphs. *)
    method! region_sem =
      let nout = self#noutputs in
      (* [i] is the matching route's index, -1 on a miss. *)
      let forward p i =
        if i < 0 then begin
          misses <- misses + 1;
          self#drop ~reason:"no route" p;
          Region.consumed
        end
        else begin
          let r = routes.(i) in
          if r.rt_gw <> 0 then (Packet.anno p).Packet.dst_ip <- r.rt_gw;
          if r.rt_port < nout then r.rt_port
          else begin
            self#drop ~reason:"route to unconnected port" p;
            Region.consumed
          end
        end
      in
      let scanned i = if i < 0 then Array.length routes else i + 1 in
      Some
        (Region.Route
           {
             rt_make =
               (fun ~lean_work ->
                 let charge = not lean_work in
                 fun p ->
                   let i = self#scan (Packet.anno p).Packet.dst_ip in
                   if charge then self#charge (Hooks.W_lookup (scanned i));
                   forward p i);
             rt_make_batch =
               (fun ~lean_work ->
                 let charge = not lean_work in
                 fun batch ports ->
                   let total = ref 0 in
                   for k = 0 to Array.length batch - 1 do
                     let p = batch.(k) in
                     let i = self#scan (Packet.anno p).Packet.dst_ip in
                     total := !total + scanned i;
                     ports.(k) <- forward p i
                   done;
                   if charge && !total > 0 then
                     self#charge (Hooks.W_lookup !total));
           })

    (* Live table updates, matching the trie backend's handlers. The
       sorted-array invariant (longest prefix first, declaration order
       within equal lengths) is maintained by inserting a live add after
       every existing route of greater-or-equal mask — a live add is
       "declared last", so first-declared-wins is preserved exactly as
       under [configure]. A removed prefix falls through to the next
       less-specific match (or a miss) on the very next lookup. *)
    method! write_handler handler value =
      match handler with
      | "add" -> (
          match parse_route value with
          | None ->
              Error
                (Printf.sprintf "%s: bad route (want ADDR/MASK [GW] PORT)"
                   self#class_name)
          | Some r ->
              if
                Array.exists
                  (fun q -> q.rt_addr = r.rt_addr && q.rt_mask = r.rt_mask)
                  routes
              then Error (Printf.sprintf "%s: duplicate route" self#class_name)
              else begin
                let n = Array.length routes in
                let pos = ref 0 in
                while !pos < n && routes.(!pos).rt_mask >= r.rt_mask do
                  incr pos
                done;
                routes <-
                  Array.concat
                    [
                      Array.sub routes 0 !pos;
                      [| r |];
                      Array.sub routes !pos (n - !pos);
                    ];
                Ok ()
              end)
      | "remove" -> (
          match Ipaddr.parse_prefix value with
          | None ->
              Error
                (Printf.sprintf "%s: bad prefix (want ADDR/MASK)"
                   self#class_name)
          | Some (addr, mask) ->
              let addr = addr land mask in
              let keep =
                Array.of_seq
                  (Seq.filter
                     (fun q -> not (q.rt_addr = addr && q.rt_mask = mask))
                     (Array.to_seq routes))
              in
              if Array.length keep = Array.length routes then
                Error (Printf.sprintf "%s: no such route" self#class_name)
              else begin
                routes <- keep;
                Ok ()
              end)
      | h -> Error (Printf.sprintf "%s: no write handler %S" name h)

    method! stats = [ ("routes", Array.length routes); ("misses", misses) ]
  end

module Lpm = Oclick_lpm.Dir24_8

(* DIR-24-8 trie backend. W_lookup charges the trie's memory touches
   (1-2 at the production stride), so the obs ledger prices a lookup at
   what it actually costs instead of the linear scan length; the charge
   is a pure function of the destination address, hence identical across
   scalar / batch / compiled paths.

   Small tables get a 2^16 stage 1 (256 KB); at 65536 routes the table
   rebuilds itself at the full 2^24 stage 1 (64 MB, the DIR-24-8 layout
   proper), whether the routes arrived via [configure] or live [add]
   write handlers. *)
class trie_ip_lookup cls name =
  object (self)
    inherit E.base name
    val mutable trie = Lpm.create ~stride1:16 ()
    val mutable misses = 0
    val mutable dst_scratch : int array = [||]
    val mutable nh_scratch : int array = [||]
    method class_name = cls

    method! port_count = "1/-"
    method! processing = "h/h"

    method private prefix_len_of r =
      match Ipaddr.prefix_length_of_netmask r.rt_mask with
      | Some len -> Ok len
      | None -> Error (Printf.sprintf "%s: non-contiguous netmask" cls)

    method private upgrade_stride_if_needed =
      if Lpm.stride1 trie = 16 && Lpm.nroutes trie >= 65536 then begin
        let big = Lpm.create ~stride1:24 () in
        Lpm.iter_routes trie (fun ~addr ~len ~gw ~port ->
            ignore (Lpm.add big ~addr ~len ~gw ~port));
        trie <- big
      end

    method! configure config =
      match parse_table cls config with
      | Error _ as e -> e
      | Ok rs ->
          let rec lens acc = function
            | [] -> Ok (List.rev acc)
            | r :: rest -> (
                match self#prefix_len_of r with
                | Ok len -> lens ((r, len) :: acc) rest
                | Error _ as e -> e)
          in
          (match lens [] rs with
          | Error _ as e -> e
          | Ok routes ->
              let stride1 = if List.length routes >= 65536 then 24 else 16 in
              let t = Lpm.create ~stride1 () in
              List.iter
                (fun (r, len) ->
                  ignore
                    (Lpm.add t ~addr:r.rt_addr ~len ~gw:r.rt_gw ~port:r.rt_port))
                routes;
              trie <- t;
              Ok ())

    (* The lookup, stated once for both forms of the route sem: charge
       the trie touches unless [lean_work], rewrite the gateway
       annotation, account misses and unconnected drops, and give the
       output port or [Region.consumed]. Reads [trie] per call, so live
       adds/removes and stride upgrades stay visible to compiled
       graphs. *)
    method! region_sem =
      let nout = self#noutputs in
      (* [nh] is the next-hop handle, negative on a miss. *)
      let forward p nh =
        if nh < 0 then begin
          misses <- misses + 1;
          self#drop ~reason:"no route" p;
          Region.consumed
        end
        else begin
          let gw = Lpm.gw trie nh in
          if gw <> 0 then (Packet.anno p).Packet.dst_ip <- gw;
          let port = Lpm.port trie nh in
          if port < nout then port
          else begin
            self#drop ~reason:"route to unconnected port" p;
            Region.consumed
          end
        end
      in
      let dst p = (Packet.anno p).Packet.dst_ip land 0xffff_ffff in
      Some
        (Region.Route
           {
             rt_make =
               (fun ~lean_work ->
                 let charge = not lean_work in
                 fun p ->
                   let r = Lpm.lookup trie (dst p) in
                   if charge then
                     self#charge (Hooks.W_lookup (Lpm.result_touches r));
                   forward p
                     (if Lpm.result_found r then Lpm.result_nh r else -1));
             rt_make_batch =
               (fun ~lean_work ->
                 let charge = not lean_work in
                 fun batch ports ->
                   let n = Array.length batch in
                   if Array.length dst_scratch < n then begin
                     dst_scratch <- Array.make n 0;
                     nh_scratch <- Array.make n 0
                   end;
                   for i = 0 to n - 1 do
                     dst_scratch.(i) <- dst batch.(i)
                   done;
                   (* Two passes over the vector: the same next hops and
                      touch counts as [n] scalar lookups, charged as one
                      sum. *)
                   let touches =
                     Lpm.lookup_batch trie dst_scratch nh_scratch n
                   in
                   for i = 0 to n - 1 do
                     ports.(i) <- forward batch.(i) nh_scratch.(i)
                   done;
                   if charge && touches > 0 then
                     self#charge (Hooks.W_lookup touches));
           })

    (* Live table updates, Click-handler style:
         write rt.add "18.26.4.0/24 [GW] PORT"
         write rt.remove "18.26.4.0/24"
       Lookups between calls see a consistent table (each add/remove is
       a complete incremental trie update). *)
    method! write_handler handler value =
      match handler with
      | "add" -> (
          match parse_route value with
          | None ->
              Error (Printf.sprintf "%s: bad route (want ADDR/MASK [GW] PORT)" cls)
          | Some r -> (
              match self#prefix_len_of r with
              | Error _ as e -> e
              | Ok len -> (
                  match
                    Lpm.add trie ~addr:r.rt_addr ~len ~gw:r.rt_gw ~port:r.rt_port
                  with
                  | `Duplicate ->
                      Error (Printf.sprintf "%s: duplicate route" cls)
                  | `Added ->
                      self#upgrade_stride_if_needed;
                      Ok ())))
      | "remove" -> (
          match Ipaddr.parse_prefix value with
          | None -> Error (Printf.sprintf "%s: bad prefix (want ADDR/MASK)" cls)
          | Some (addr, mask) -> (
              match Ipaddr.prefix_length_of_netmask mask with
              | None -> Error (Printf.sprintf "%s: non-contiguous netmask" cls)
              | Some len ->
                  if Lpm.remove trie ~addr:(addr land mask) ~len then Ok ()
                  else Error (Printf.sprintf "%s: no such route" cls)))
      | h -> Error (Printf.sprintf "%s: no write handler %S" name h)

    method! stats =
      [
        ("routes", Lpm.nroutes trie);
        ("misses", misses);
        ("trie_bytes", Lpm.memory_bytes trie);
        ("leaf_blocks", Lpm.leaf_blocks trie);
      ]
  end

let register () =
  def "LookupIPRoute" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new trie_ip_lookup "LookupIPRoute" n :> E.t));
  def "StaticIPLookup" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new trie_ip_lookup "StaticIPLookup" n :> E.t));
  def "RadixIPLookup" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new trie_ip_lookup "RadixIPLookup" n :> E.t));
  def "LinearIPLookup" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new linear_ip_lookup n :> E.t))
