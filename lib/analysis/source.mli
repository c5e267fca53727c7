(** Loading repo sources into Parsetrees for the lint engine.

    The engine works on plain Parsetrees — no typing pass — so any file
    the compiler can parse can be linted, including files that
    currently fail to type-check. *)

type 'a file = {
  path : string;  (** as given to the loader; findings carry it verbatim *)
  ast : 'a;
}

type t = Parsetree.structure file
(** An implementation ([.ml]). *)

type intf = Parsetree.signature file
(** An interface ([.mli]); only UNUSED-EXPORT reads these. *)

exception Parse_error of string
(** Raised with a printable, located message when a source does not
    parse. *)

val parse_string : path:string -> string -> t
(** Parse an inline source snippet, attributing locations to [path].
    Used by the test fixtures; [path] also drives the path-scoped
    rules (allowlists match on it). *)

val parse_interface_string : path:string -> string -> intf
val parse_file : string -> t
val parse_interface_file : string -> intf

val find_files : ext:string -> roots:string list -> string list
(** All files ending in [ext] under the given roots (a root may itself
    be a file), sorted; [_build], [.git] and other dot-directories are
    skipped. *)
