(** The moss benchmark: software-plagiarism detection by winnowing
    document fingerprints, as in the paper's suite (the original moss,
    run on 180 student projects).

    Each document's text is copied into a large heap buffer and
    scanned with a rolling k-gram hash; winnowing selects window
    minima as fingerprints, which become small posting records in a
    global index.  A repeated query phase then walks the index chains
    counting cross-document matches.

    The allocation pattern is the paper's locality case study:
    "alternately allocate a small, frequently accessed object and a
    large, infrequently accessed object".  The [optimized] region
    variant uses two regions — one for the small postings and index,
    one for the large buffers — which the paper reports improves
    execution time by 24%; the default ("slow") variant allocates
    everything in one region. *)

type params = {
  ndocs : int;
  words_per_doc : int;
  kgram : int;  (** characters per hashed k-gram *)
  window : int;  (** winnowing window *)
  plagiarised_pairs : int;  (** document pairs sharing a passage *)
  query_rounds : int;
  optimized : bool;  (** two regions (small/large) instead of one *)
  seed : int;
}

val default_params : params
val large_params : params

type outcome = {
  fingerprints : int;
  matches : int;  (** cross-document fingerprint matches found *)
  best_pair : int * int;  (** most similar pair of documents *)
  checksum : int;
}

val run : Api.t -> params -> outcome
