// Partially ordered sets modelling inter-frame dependency (paper §3.1).
//
// Elements are frame indices 0..n-1 of a buffer window.  The order relation
// follows the paper: x ⊑ y iff frame x depends (directly or transitively)
// on frame y — an MPEG B-frame is *below* the anchors it references.  A
// frame that some other frame depends on is an *anchor* frame.  Antichains
// are exactly the sets that may be freely permuted before transmission; a
// minimal antichain decomposition (Mirsky: its size equals the longest
// chain) yields the layers of the Layered Permutation Transmission Order
// (layer_members below; proto::Planner scrambles within each layer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace espread::poset {

using Element = std::size_t;

/// Finite poset given by direct dependencies, with precomputed transitive
/// closure.  Mutations (add_dependency) invalidate and lazily rebuild the
/// closure.  Cycles are rejected at closure time (throws std::invalid_argument),
/// since a dependency cycle cannot be decoded at all.
class Poset {
public:
    /// Poset of n pairwise-incomparable elements (an antichain).
    explicit Poset(std::size_t n);

    std::size_t size() const noexcept { return n_; }

    /// Declares that `dependent` directly depends on `prerequisite`
    /// (dependent ⊏ prerequisite in the paper's orientation).
    /// Self-dependencies throw std::invalid_argument.
    void add_dependency(Element dependent, Element prerequisite);

    /// x strictly below y: x transitively depends on y.
    bool depends_on(Element x, Element y) const;

    /// x ⊑ y: x == y or x depends on y.
    bool leq(Element x, Element y) const { return x == y || depends_on(x, y); }

    /// Comparable: x ⊑ y or y ⊑ x.
    bool comparable(Element x, Element y) const;

    /// Anchor: some other element depends on it (paper §3.2).
    bool is_anchor(Element x) const;
    std::vector<Element> anchors() const;

    /// Direct prerequisites declared for x (deduplicated, sorted).
    const std::vector<Element>& direct_prerequisites(Element x) const;

    /// Every pair in `set` is incomparable.
    bool is_antichain(const std::vector<Element>& set) const;

    /// Length (number of elements) of the longest chain.
    std::size_t longest_chain_length() const;

    /// Deterministic linear extension listing prerequisites before
    /// dependents (Kahn's algorithm, lowest index first among ready
    /// elements) — a valid transmission order.
    std::vector<Element> linear_extension() const;

    /// Checks that `order` is a permutation of all elements in which every
    /// element appears after all of its prerequisites.
    bool is_linear_extension(const std::vector<Element>& order) const;

private:
    void ensure_closure() const;
    void check_element(Element x) const;

    std::size_t n_;
    std::vector<std::vector<Element>> prereqs_;  // direct, sorted, deduped
    mutable std::vector<std::vector<bool>> closure_;  // closure_[x][y]: x depends on y
    mutable bool closure_valid_ = false;
};

/// The transmission layers of a window (paper §3.2, Fig. 3): anchors
/// grouped by height — the length of the longest chain of prerequisites
/// below them, so for MPEG with W GOPs buffered the I frames, then the
/// first P frame of each GOP, then the second, ... — followed by one
/// layer of all non-anchor (B) frames.  Every returned set is a non-empty
/// antichain; the prerequisites of any frame lie in a strictly earlier
/// set, so any within-layer order of the concatenation is a linear
/// extension; the number of sets equals longest_chain_length() (a minimal
/// antichain decomposition).  A dependency-free window is one layer.
std::vector<std::vector<Element>> layer_members(const Poset& poset);

}  // namespace espread::poset
