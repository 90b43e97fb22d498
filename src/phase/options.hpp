// Knobs of the phase-analysis pipeline (signature → cluster → select →
// representative sweep).  One options struct travels through the whole
// pipeline so a given trace always decomposes into the same phases no
// matter which stage the caller enters at.
#ifndef DEW_PHASE_OPTIONS_HPP
#define DEW_PHASE_OPTIONS_HPP

#include <cstddef>
#include <cstdint>

namespace dew::phase {

struct phase_options {
    // Records per analysis interval.  Every interval except possibly the
    // trace's tail has exactly this many records; the tail keeps its true
    // (smaller) record count and is weighted accordingly.
    std::uint64_t interval_records{8192};

    // Block size (bytes, power of two) at which interval signatures observe
    // the address stream — the granularity of "the working set this
    // interval touched".  Independent of the block sizes a sweep simulates.
    std::uint32_t signature_block_size{64};

    // Buckets of the fixed-width signature histogram.  Each touched block
    // hashes (splitmix64 finalizer) into one of `signature_width` buckets;
    // the bucket counts, L1-normalised over the interval's records, are the
    // interval's signature.  Wider signatures separate phases with similar
    // footprints at the cost of more clustering work per interval.
    std::uint32_t signature_width{64};

    // Ceiling on the number of phases (k of the k-means step).  The
    // effective phase count is min(max_phases, distinct signatures).
    std::uint32_t max_phases{8};

    // Lloyd-iteration budget of the deterministic k-means.  Clustering
    // stops earlier when an iteration changes no assignment.
    std::uint32_t kmeans_iterations{32};

    // Records pulled per chunk while extracting signatures.  Purely a
    // buffering knob: signatures are bucketed by absolute record index, so
    // the result is bit-identical for every chunk size (tests/phase/
    // signature_test.cpp proves chunk sizes 1/7/4096 agree).
    std::size_t chunk_records{std::size_t{64} * 1024};
};

// Rejects ill-formed options with std::invalid_argument naming the
// offending field: zero interval_records/signature_width/max_phases/
// chunk_records, or a non-power-of-two signature_block_size.
void validate(const phase_options& options);

} // namespace dew::phase

#endif // DEW_PHASE_OPTIONS_HPP
