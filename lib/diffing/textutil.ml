(** Small text helpers shared by the diffing and oracle layers. *)

(** [contains_sub haystack needle] is true iff [needle] occurs in
    [haystack] as a contiguous substring; the empty needle occurs in
    every haystack.  Compares in place, allocating nothing. *)
let contains_sub (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec matches_at i j =
    j = nn || (String.unsafe_get haystack (i + j) = String.unsafe_get needle j && matches_at i (j + 1))
  in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  go 0

(** Lower-case ASCII copy of a string. *)
let lowercase = String.lowercase_ascii

(** Tokenize a text into lower-case word/identifier tokens, splitting
    camelCase and snake_case identifiers into their components.  This is
    the shared tokenizer for TF-IDF embeddings and keyword extraction. *)
let word_tokens (text : string) : string list =
  let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let n = String.length text in
  let raw = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then (
      raw := Buffer.contents buf :: !raw;
      Buffer.clear buf)
  in
  for i = 0 to n - 1 do
    let c = text.[i] in
    if is_alnum c then Buffer.add_char buf c else flush ()
  done;
  flush ();
  (* split camelCase: "createEphemeralNode" -> create, ephemeral, node *)
  let split_camel (w : string) : string list =
    let parts = ref [] in
    let buf = Buffer.create 8 in
    String.iter
      (fun c ->
        if c >= 'A' && c <= 'Z' && Buffer.length buf > 0 then (
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf);
        Buffer.add_char buf (Char.lowercase_ascii c))
      w;
    if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
    List.rev !parts
  in
  List.concat_map split_camel (List.rev !raw)
  |> List.filter (fun w -> String.length w > 1)
