(* Unsafe fixed-width loads: compiler primitives that become single
   native load instructions (no per-byte composition, no per-access
   bounds check — callers hoist one range check over the whole region).
   The 16-bit loads are native-endian; the one's-complement sum is
   byte-order independent up to a byte swap of the final folded result
   (RFC 1071 §2(B)), so the inner loop runs entirely in native order and
   pays a single [bswap16] at the end on little-endian machines. *)
external by_get16u : bytes -> int -> int = "%caml_bytes_get16u"
external swap16 : int -> int = "%bswap16"

let fold16 sum =
  let s = (sum land 0xffff) + (sum lsr 16) in
  (s land 0xffff) + (s lsr 16)

(* Finish a native-order partial sum: fold to 16 bits, then swap into
   network order on little-endian hosts. *)
let finish_native sum = if Sys.big_endian then fold16 sum else swap16 (fold16 sum)

(* An odd trailing byte is padded with zero on its right in network
   order; in a native-order (little-endian) word that pad occupies the
   high byte, so the data byte contributes unshifted. *)
let tail_byte c = if Sys.big_endian then Char.code c lsl 8 else Char.code c

(* Word-at-a-time inner loop: one bounds check at entry covers the whole
   region, then unsafe 16-bit loads, unrolled four words (8 bytes) per
   iteration. Partial sums stay well below [max_int] for any realistic
   packet (len < 2^46 on 64-bit), so no intermediate folding is needed
   before the final fold. *)
let ones_complement_sum buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum";
  let sum = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let o = !i in
    sum :=
      !sum + by_get16u buf o + by_get16u buf (o + 2) + by_get16u buf (o + 4)
      + by_get16u buf (o + 6);
    i := o + 8
  done;
  while !i + 2 <= stop do
    sum := !sum + by_get16u buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + tail_byte (Bytes.unsafe_get buf !i);
  finish_native !sum

let checksum buf ~pos ~len = lnot (ones_complement_sum buf ~pos ~len) land 0xffff

let combine a b = fold16 (a + b)
let finish sum = lnot sum land 0xffff

let ip_header_valid buf ~pos ~ihl =
  ihl >= 5
  && pos >= 0
  && pos + (ihl * 4) <= Bytes.length buf
  && checksum buf ~pos ~len:(ihl * 4) = 0
