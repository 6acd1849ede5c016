(** A growable byte string kept in fixed 4 KiB chunks.

    Growth allocates one more chunk and never copies, so a long-lived
    store (a simulated file, a scheduler's decision trace) holds at most
    one chunk of slack and puts no doubling buffer on the heap. *)

type t

val chunk_size : int
(** 4096. *)

val create : unit -> t
(** Empty; allocates no chunk until the first byte. *)

val length : t -> int

val add_char : t -> char -> unit

val add_subbytes : t -> Bytes.t -> pos:int -> len:int -> unit

val add_string : t -> string -> unit

val add_int64_le : t -> int64 -> unit
(** Eight bytes, little-endian. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] bytes ([n <= length t]). Chunks past
    the one that holds byte [n] are released.
    @raise Invalid_argument if [n] is negative or past the end. *)

val blit : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
(** Copy [len] bytes from position [src_pos] into a buffer. Allocates
    nothing.
    @raise Invalid_argument if either range is out of bounds. *)

val sub_string : t -> pos:int -> len:int -> string

val contents : t -> string
