(** Small text helpers shared by the diffing and oracle layers. *)

(** Contiguous-substring test; the empty needle occurs in every
    haystack. *)
val contains_sub : string -> string -> bool

(** Lower-case ASCII copy. *)
val lowercase : string -> string

(** Identifier-aware tokenizer: lower-cased word tokens with camelCase and
    snake_case identifiers split into components; 1-character tokens are
    dropped.  The shared tokenizer for TF-IDF and keyword extraction. *)
val word_tokens : string -> string list
