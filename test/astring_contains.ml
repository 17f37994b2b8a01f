(* Substring search used by test assertions (we do not depend on
   astring): the library's allocation-free search. *)

let contains : string -> string -> bool = Diffing.Textutil.contains_sub
