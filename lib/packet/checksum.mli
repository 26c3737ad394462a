(** The Internet checksum (RFC 1071) used by IP, ICMP, and UDP.

    The loop consumes 8 bytes per iteration through unsafe fixed-width
    word loads under a single hoisted bounds check. *)

val ones_complement_sum : bytes -> pos:int -> len:int -> int
(** 16-bit one's-complement sum of [len] bytes starting at [pos]; an odd
    trailing byte is padded with zero. The result is folded to 16 bits. *)

val checksum : bytes -> pos:int -> len:int -> int
(** The Internet checksum: one's complement of {!ones_complement_sum},
    as a 16-bit value. *)

val combine : int -> int -> int
(** One's-complement addition of two folded 16-bit partial sums, for
    incremental computation over discontiguous regions. *)

val finish : int -> int
(** Complement a combined partial sum into a checksum field value. *)

val ip_header_valid : bytes -> pos:int -> ihl:int -> bool
(** Verifies the header checksum of the IP header at [pos] whose header
    length is [ihl] 32-bit words. *)
