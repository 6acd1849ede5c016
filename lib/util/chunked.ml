let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

(* Chunks [0, n_alloc) are allocated; the rest of [chunks] is
   [Bytes.empty]. Byte [i] lives at [i land (chunk_size - 1)] in chunk
   [i lsr chunk_bits]. *)
type t = { mutable chunks : Bytes.t array; mutable n_alloc : int; mutable len : int }

let create () = { chunks = [||]; n_alloc = 0; len = 0 }
let length t = t.len

(* Allocate the chunk that byte [t.len] falls in, if it is not yet. *)
let reserve t =
  if t.len lsr chunk_bits = t.n_alloc then begin
    if t.n_alloc = Array.length t.chunks then begin
      let bigger = Array.make (max 4 (2 * t.n_alloc)) Bytes.empty in
      Array.blit t.chunks 0 bigger 0 t.n_alloc;
      t.chunks <- bigger
    end;
    t.chunks.(t.n_alloc) <- Bytes.create chunk_size;
    t.n_alloc <- t.n_alloc + 1
  end

let add_char t c =
  reserve t;
  Bytes.unsafe_set t.chunks.(t.len lsr chunk_bits) (t.len land (chunk_size - 1)) c;
  t.len <- t.len + 1

let add_subbytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Chunked.add_subbytes";
  let pos = ref pos and left = ref len in
  while !left > 0 do
    reserve t;
    let off = t.len land (chunk_size - 1) in
    let n = min !left (chunk_size - off) in
    Bytes.blit b !pos t.chunks.(t.len lsr chunk_bits) off n;
    t.len <- t.len + n;
    pos := !pos + n;
    left := !left - n
  done

let add_string t s = add_subbytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let add_int64_le t v =
  let off = t.len land (chunk_size - 1) in
  if off <= chunk_size - 8 then begin
    reserve t;
    Bytes.set_int64_le t.chunks.(t.len lsr chunk_bits) off v;
    t.len <- t.len + 8
  end
  else
    for i = 0 to 7 do
      add_char t (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Chunked.truncate";
  let keep = min t.n_alloc ((n lsr chunk_bits) + 1) in
  Array.fill t.chunks keep (t.n_alloc - keep) Bytes.empty;
  t.n_alloc <- keep;
  t.len <- n

let blit t ~src_pos dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos > t.len - len || dst_pos < 0
     || dst_pos > Bytes.length dst - len
  then invalid_arg "Chunked.blit";
  let src = ref src_pos and dst_pos = ref dst_pos and left = ref len in
  while !left > 0 do
    let off = !src land (chunk_size - 1) in
    let n = min !left (chunk_size - off) in
    Bytes.blit t.chunks.(!src lsr chunk_bits) off dst !dst_pos n;
    src := !src + n;
    dst_pos := !dst_pos + n;
    left := !left - n
  done

let sub_string t ~pos ~len =
  let b = Bytes.create len in
  blit t ~src_pos:pos b ~dst_pos:0 ~len;
  Bytes.unsafe_to_string b

let contents t = sub_string t ~pos:0 ~len:t.len
