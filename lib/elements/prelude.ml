(* Shared abbreviations and the registration helper used by every element
   module in this library. Not part of the public API. *)

module E = Oclick_runtime.Element
module Region = Oclick_runtime.Region
module Hooks = Oclick_runtime.Hooks
module Registry = Oclick_runtime.Registry
module Netdevice = Oclick_runtime.Netdevice
module Spsc = Oclick_runtime.Spsc
module Fifo = Oclick_runtime.Fifo
module Aged_table = Oclick_runtime.Aged_table
module Spec = Oclick_graph.Spec
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr
module Args = Oclick_lang.Args

let def ?ports ?processing ?flow ?(replace = false) cls ctor =
  Registry.register ~replace
    ~spec:(Spec.make ?ports ?processing ?flow cls)
    cls ctor

(* Deterministic per-element pseudo-random stream (for RED). *)
let lcg_seed_of_name name = Hashtbl.hash name land 0x3fffffff

let lcg_next state =
  let s = ((!state * 1103515245) + 12345) land 0x3fffffff in
  state := s;
  s

(* A uniform float in [0,1). *)
let lcg_float state = float_of_int (lcg_next state) /. 1073741824.0

let parse_positional_and_keywords config =
  let args = Args.split config in
  List.partition_map
    (fun a ->
      match Args.keyword a with
      | Some (k, v) -> Right (k, v)
      | None -> Left a)
    args
