(** The standard element library.

    Call {!register_all} once at program start to make every element class
    available to the driver and the optimizers — the explicit analogue of
    Click linking its element object files. Per-module [register]
    functions support minimal drivers generated by [click-mkmindriver].

    The classes, by module:
    - {!Basic}: Discard, Idle, Counter, Tee, StaticSwitch, PaintSwitch,
      Print, Queue, RED
    - {!Ip}: Paint, CheckPaint/PaintTee, Strip, Unstrip, CheckIPHeader,
      GetIPAddress, SetIPAddress, DropBroadcasts, IPGWOptions, FixIPSrc,
      DecIPTTL, IPFragmenter, ICMPError, EtherEncap
    - {!Routing}: LookupIPRoute / StaticIPLookup / RadixIPLookup (DIR-24-8
      trie LPM, live add/remove handlers) and LinearIPLookup (the
      paper-era linear scan, differential reference)
    - {!Arp}: ARPQuerier, ARPResponder
    - {!Classify}: Classifier, IPClassifier, IPFilter (decision trees
      built at configure time) and the generated FastClassifier classes
    - {!Devices}: PollDevice/FromDevice, ToDevice, InfiniteSource, UDPSource
    - {!Combos}: IPInputCombo, IPOutputCombo (introduced by [click-xform])
    - {!Misc}: Align, AlignmentInfo, RouterLink
    - {!Extras}: PrioSched, RoundRobinSched, RoundRobinSwitch, HashSwitch,
      FrontDropQueue, CheckLength, IPEncap, UDPIPEncap, EtherMirror,
      ICMPPingResponder, HostEtherFilter
    - {!Rewriter}: IPRewriter (flow-based NAT)
    - {!Trace_io}: FromTrace, ToTrace (packet-trace replay and capture) *)

module Basic : sig
  val register : unit -> unit
end

module Ip : sig
  val register : unit -> unit
end

module Routing : sig
  val register : unit -> unit
end

module Arp : sig
  val register : unit -> unit
end

module Classify : sig
  val register : unit -> unit

  val register_fast_classifier :
    class_name:string -> Oclick_classifier.Tree.t -> unit
end

module Devices : sig
  val register : unit -> unit
end

module Combos : sig
  val register : unit -> unit
end

module Misc : sig
  val register : unit -> unit
end

module Extras : sig
  val register : unit -> unit
end

module Rewriter : sig
  val register : unit -> unit
end

module Trace_io : sig
  val register : unit -> unit
end

val register_all : unit -> unit
(** Registers every module above (idempotent). *)

val register_fast_classifier :
  class_name:string -> Oclick_classifier.Tree.t -> unit
(** The runtime half of [click-fastclassifier]: installs a generated
    classifier class whose instances walk the tool's optimized tree,
    charged as specialized code ({!Oclick_runtime.Hooks.W_classify_compiled})
    — the registry stands in for Click's dynamic linking of generated
    element code. *)
