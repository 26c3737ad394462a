(* IPRewriter: flow-based address/port rewriting (NAT). A packet on input
   0 (the "forward" direction) is matched against the flow table; a new
   flow gets a mapping from the configured pattern, possibly allocating a
   source port from a range. Packets on input 1 (replies) are rewritten
   back through the reverse mapping. IP and transport checksums are kept
   correct.

   Configuration: "SADDR SPORT DADDR DPORT", each field an address /
   port / port range ("1024-65535") / "-" to leave the field alone, e.g.

     IPRewriter(18.26.4.24 1024-65535 - -)      // classic NAPT

   The flow table is bounded and age-evicted (comma keywords CAPACITY
   and TIMEOUT, in entries and milliseconds), so adversarial flow churn
   cannot grow it without bound:

     IPRewriter(18.26.4.24 1024-65535 - -, CAPACITY 4096, TIMEOUT 300000)

   Evicting a mapping removes both directions; replies to an evicted
   flow fall into the existing "no reverse mapping" drop. *)

open Prelude
module Ip = Headers.Ip
module Udp = Headers.Udp
module Tcp = Headers.Tcp

type field = Keep | Set of int | Port_range of int * int

type flow = {
  f_saddr : Ipaddr.t;
  f_sport : int;
  f_daddr : Ipaddr.t;
  f_dport : int;
  f_proto : int;
}

let parse_field ~is_port s =
  let s = String.trim s in
  if String.equal s "-" then Some Keep
  else if is_port then begin
    match String.index_opt s '-' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          )
        with
        | Some lo, Some hi when 0 < lo && lo <= hi && hi < 65536 ->
            Some (Port_range (lo, hi))
        | _ -> None)
    | None -> (
        match int_of_string_opt s with
        | Some p when p >= 0 && p < 65536 -> Some (Set p)
        | _ -> None)
  end
  else Option.map (fun a -> Set a) (Ipaddr.of_string s)

let default_flow_capacity = 4096
let default_flow_timeout_ms = 300_000

class ip_rewriter name =
  object (self)
    inherit E.base name
    val mutable pat_saddr = Keep
    val mutable pat_sport = Keep
    val mutable pat_daddr = Keep
    val mutable pat_dport = Keep
    val mutable next_port = 0

    (* forward: original flow -> (mapped flow, reverse key); reverse is
       a plain mirror maintained by the forward table's eviction hook,
       so both directions die together and the pair count stays bounded
       by CAPACITY. *)
    val forward : (flow, flow * flow) Aged_table.t =
      Aged_table.create ~capacity:default_flow_capacity
        ~max_age_ns:(default_flow_timeout_ms * 1_000_000)
        ()

    val reverse : (flow, flow * flow) Hashtbl.t = Hashtbl.create 64
    val mutable drops = 0
    method class_name = "IPRewriter"
    method! port_count = "2/1-2"
    method! processing = "h/h"
    method! flow_code = "xy/xy"

    method! set_clock f =
      clock <- f;
      Aged_table.set_clock forward f

    method! configure config =
      let positional, keywords = parse_positional_and_keywords config in
      let bad = ref None in
      let int_kw key default =
        match List.assoc_opt key keywords with
        | None -> default
        | Some v -> (
            match Args.parse_int v with
            | Some n when n >= 0 -> n
            | _ ->
                if !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf "IPRewriter: bad %s %S (integer >= 0)"
                         key v);
                default)
      in
      Aged_table.set_capacity forward (int_kw "CAPACITY" default_flow_capacity);
      Aged_table.set_max_age_ns forward
        (int_kw "TIMEOUT" default_flow_timeout_ms * 1_000_000);
      List.iter
        (fun (k, _) ->
          if (not (List.mem k [ "CAPACITY"; "TIMEOUT" ])) && !bad = None then
            bad := Some (Printf.sprintf "IPRewriter: unknown keyword %s" k))
        keywords;
      Aged_table.set_on_evict forward (fun _ (_, rkey) _why ->
          Hashtbl.remove reverse rkey);
      match !bad with
      | Some msg -> Error msg
      | None -> (
          let parts =
            match positional with
            | [ pattern ] ->
                List.filter (( <> ) "")
                  (String.split_on_char ' ' (String.trim pattern))
            | _ -> []
          in
          match parts with
          | [ sa; sp; da; dp ] -> (
              match
                ( parse_field ~is_port:false sa,
                  parse_field ~is_port:true sp,
                  parse_field ~is_port:false da,
                  parse_field ~is_port:true dp )
              with
              | Some a, Some b, Some c, Some d ->
                  pat_saddr <- a;
                  pat_sport <- b;
                  pat_daddr <- c;
                  pat_dport <- d;
                  (match b with Port_range (lo, _) -> next_port <- lo | _ -> ());
                  Ok ()
              | _ -> Error "IPRewriter: bad pattern field")
          | _ -> Error "IPRewriter expects \"SADDR SPORT DADDR DPORT\"")

    method private flow_of p =
      if
        Packet.length p >= Ip.min_header_length + 4
        && Ip.fragment_offset p = 0
        && (Ip.protocol p = Ip.proto_tcp || Ip.protocol p = Ip.proto_udp)
      then begin
        let l4 = Ip.header_length p in
        Some
          {
            f_saddr = Ip.src p;
            f_sport = Packet.get_u16 p l4;
            f_daddr = Ip.dst p;
            f_dport = Packet.get_u16 p (l4 + 2);
            f_proto = Ip.protocol p;
          }
      end
      else None

    method private apply_field field current ~alloc =
      match field with
      | Keep -> current
      | Set v -> v
      | Port_range (lo, hi) ->
          if alloc then begin
            let p = next_port in
            next_port <- (if next_port >= hi then lo else next_port + 1);
            p
          end
          else current

    method private fresh_mapping flow =
      let mapped =
        {
          flow with
          f_saddr = self#apply_field pat_saddr flow.f_saddr ~alloc:false;
          f_sport = self#apply_field pat_sport flow.f_sport ~alloc:true;
          f_daddr = self#apply_field pat_daddr flow.f_daddr ~alloc:false;
          f_dport = self#apply_field pat_dport flow.f_dport ~alloc:false;
        }
      in
      (* the reply direction arrives with src/dst of the mapped flow
         swapped, and must be rewritten to the original, swapped *)
      let swap f =
        {
          f with
          f_saddr = f.f_daddr;
          f_sport = f.f_dport;
          f_daddr = f.f_saddr;
          f_dport = f.f_sport;
        }
      in
      let rkey = swap mapped in
      Aged_table.put forward flow (mapped, rkey);
      Hashtbl.replace reverse rkey (swap flow, flow);
      mapped

    method private rewrite p (target : flow) =
      let l4 = Ip.header_length p in
      Ip.set_src p target.f_saddr;
      Ip.set_dst p target.f_daddr;
      Packet.set_u16 p l4 target.f_sport;
      Packet.set_u16 p (l4 + 2) target.f_dport;
      Ip.update_checksum p;
      if not lean_work then self#charge (Hooks.W_checksum (Packet.length p));
      if Ip.protocol p = Ip.proto_udp then Headers.L4.update_udp p ~ip_off:0
      else Headers.L4.update_tcp p ~ip_off:0;
      (Packet.anno p).Packet.dst_ip <- target.f_daddr

    method! push port p =
      match self#flow_of p with
      | None ->
          drops <- drops + 1;
          self#drop ~reason:"not a rewritable packet" p
      | Some flow ->
          if port = 0 then begin
            let mapped =
              match Aged_table.find forward flow with
              | Some (m, _) -> m
              | None -> self#fresh_mapping flow
            in
            self#rewrite p mapped;
            self#output 0 p
          end
          else begin
            (* Touch the forward entry so an active reply direction
               keeps the mapping alive; a just-aged-out mapping is gone
               in both directions. *)
            match Hashtbl.find_opt reverse flow with
            | Some (original, fkey) when Aged_table.find forward fkey <> None
              ->
                self#rewrite p original;
                self#output (min 1 (self#noutputs - 1)) p
            | Some _ | None ->
                drops <- drops + 1;
                self#drop ~reason:"no reverse mapping" p
          end

    method! write_handler handler value =
      match handler with
      | "capacity" -> (
          match Args.parse_int value with
          | Some n when n >= 0 ->
              Aged_table.set_capacity forward n;
              Ok ()
          | _ -> Error (name ^ ": capacity must be an integer >= 0"))
      | "timeout_ms" -> (
          match Args.parse_int value with
          | Some n when n >= 0 ->
              Aged_table.set_max_age_ns forward (n * 1_000_000);
              Ok ()
          | _ -> Error (name ^ ": timeout_ms must be an integer >= 0"))
      | h -> Error (Printf.sprintf "%s: no write handler %S" name h)

    method! stats =
      [
        ("flows", Aged_table.length forward);
        ("evictions", Aged_table.evicted forward);
        ("drops", drops);
      ]
  end

let register () =
  def "IPRewriter" ~ports:"2/1-2" ~processing:"h/h" ~flow:"xy/xy" (fun n ->
      (new ip_rewriter n :> E.t))
