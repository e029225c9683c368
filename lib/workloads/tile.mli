(** The tile benchmark: partition text into subsections based on word
    frequency and grouping (a TextTiling-style algorithm), as in the
    paper's suite.  The original program used malloc/free, so this
    workload has both variants.

    The text is tokenised into word records; fixed-size blocks of
    tokens get word-frequency tables; adjacent blocks are compared by
    cosine similarity and boundaries are placed at similarity minima.

    Region structure: a document region holds the vocabulary and the
    similarity profile; each block's frequency table lives in its own
    region, deleted as soon as both comparisons involving the block
    are done.  The malloc variant frees block tables at the same
    point. *)

type params = {
  copies : int;  (** how many copies of the text are processed *)
  sentences : int;
  words_per_sentence : int;
  sentences_per_topic : int;
  block_tokens : int;  (** tokens per comparison block *)
  vocabulary : int;  (** distinct words per topic *)
  topics : int;
  seed : int;
}

val default_params : params
val large_params : params

type outcome = {
  tokens : int;
  blocks : int;
  boundaries : int;  (** tile boundaries found *)
  checksum : int;
}

val run : Api.t -> params -> outcome
