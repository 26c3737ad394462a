(* In-memory spans for the traced run, and the benchmark's clock.

   A span is a name, a start and an end on the monotonic clock, and the
   span it ran inside. Spans are appended to growable arrays while the
   benchmark runs and only rendered when it ends. Self time is a span's
   duration minus the time its direct children cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable names : string array;
  mutable starts : int array;
  mutable ends : int array;
  mutable parents : int array;
  mutable len : int;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
  mutable enabled : bool;
}

let create ~enabled =
  let cap = 1024 in
  {
    names = Array.make cap "";
    starts = Array.make cap 0;
    ends = Array.make cap 0;
    parents = Array.make cap 0;
    len = 0;
    open_ = -1;
    enabled;
  }

let grow t =
  let cap = 2 * Array.length t.starts in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0;
  t.ends <- ext t.ends 0;
  t.parents <- ext t.parents 0

(* Record an already-timed interval as a child of the open span. *)
let record t name ~start ~stop =
  if t.enabled then begin
    if t.len = Array.length t.starts then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.starts.(i) <- start;
    t.ends.(i) <- stop;
    t.parents.(i) <- t.open_;
    t.len <- i + 1
  end

(* Open a span now; [leave] closes it. Returns the span's index. *)
let enter t name =
  if not t.enabled then -1
  else begin
    let start = now_ns () in
    record t name ~start ~stop:start;
    let i = t.len - 1 in
    t.open_ <- i;
    i
  end

let leave t i =
  if i >= 0 then begin
    t.ends.(i) <- now_ns ();
    t.open_ <- t.parents.(i)
  end

let with_span t name f =
  let i = enter t name in
  Fun.protect ~finally:(fun () -> leave t i) f

(* Per name: count, total and self nanoseconds. *)
let summary t =
  let self = Array.init t.len (fun i -> t.ends.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.ends.(i) - t.starts.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let n, tot, sf =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl t.names.(i))
    in
    Hashtbl.replace tbl t.names.(i)
      (n + 1, tot + (t.ends.(i) - t.starts.(i)), sf + self.(i))
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_json t : Oclick_obs.Json.value =
  let open Oclick_obs.Json in
  let t0 = if t.len > 0 then t.starts.(0) else 0 in
  Obj
    [
      ( "spans",
        List
          (List.init t.len (fun i ->
               Obj
                 [
                   ("id", Int i);
                   ("name", String t.names.(i));
                   ("parent", Int t.parents.(i));
                   ("start_ns", Int (t.starts.(i) - t0));
                   ("end_ns", Int (t.ends.(i) - t0));
                 ])) );
      ( "summary",
        List
          (List.map
             (fun (name, (n, tot, sf)) ->
               Obj
                 [
                   ("name", String name);
                   ("count", Int n);
                   ("total_ns", Int tot);
                   ("self_ns", Int sf);
                 ])
             (summary t)) );
    ]
