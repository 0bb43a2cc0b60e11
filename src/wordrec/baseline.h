// Shape-hashing baseline ("Base" in Table 1): our reimplementation of the
// word-grouping front end of WordRev [6], as the paper itself did ("Since we
// did not have access to the source code, we wrote our own implementation").
// It uses the same §2.2 grouping and the same hash keys, but chains bits only
// on FULLY matching, unsimplified fanin-cone structure.
//
// That is identify_words() allowed no reduction trials
// (max_simultaneous_assignments 0): every partial subgroup falls back to
// full-match segmentation, so Ours is never worse than Base by
// construction.  The trace sink is ignored and only the words are returned.
#pragma once

#include "wordrec/options.h"
#include "wordrec/word.h"

namespace netrev::wordrec {

WordSet identify_words_baseline(const netlist::Netlist& nl,
                                const Options& options = {});

}  // namespace netrev::wordrec
