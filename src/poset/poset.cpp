#include "poset/poset.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace espread::poset {

Poset::Poset(std::size_t n) : n_(n), prereqs_(n) {}

void Poset::check_element(Element x) const {
    if (x >= n_) throw std::out_of_range("Poset: element out of range");
}

void Poset::add_dependency(Element dependent, Element prerequisite) {
    check_element(dependent);
    check_element(prerequisite);
    if (dependent == prerequisite) {
        throw std::invalid_argument("Poset: self-dependency");
    }
    auto& v = prereqs_[dependent];
    const auto it = std::lower_bound(v.begin(), v.end(), prerequisite);
    if (it == v.end() || *it != prerequisite) v.insert(it, prerequisite);
    closure_valid_ = false;
}

void Poset::ensure_closure() const {
    if (closure_valid_) return;
    closure_.assign(n_, std::vector<bool>(n_, false));
    // Topological propagation; also detects cycles.
    std::vector<std::size_t> outstanding(n_, 0);  // unprocessed prerequisites
    std::vector<std::vector<Element>> dependents(n_);
    for (Element x = 0; x < n_; ++x) {
        outstanding[x] = prereqs_[x].size();
        for (const Element p : prereqs_[x]) dependents[p].push_back(x);
    }
    std::queue<Element> ready;
    for (Element x = 0; x < n_; ++x) {
        if (outstanding[x] == 0) ready.push(x);
    }
    std::size_t processed = 0;
    while (!ready.empty()) {
        const Element p = ready.front();
        ready.pop();
        ++processed;
        for (const Element x : dependents[p]) {
            closure_[x][p] = true;
            for (Element y = 0; y < n_; ++y) {
                if (closure_[p][y]) closure_[x][y] = true;
            }
            if (--outstanding[x] == 0) ready.push(x);
        }
    }
    if (processed != n_) {
        throw std::invalid_argument("Poset: dependency cycle");
    }
    closure_valid_ = true;
}

bool Poset::depends_on(Element x, Element y) const {
    check_element(x);
    check_element(y);
    ensure_closure();
    return closure_[x][y];
}

bool Poset::comparable(Element x, Element y) const {
    return leq(x, y) || leq(y, x);
}

bool Poset::is_anchor(Element x) const {
    check_element(x);
    ensure_closure();
    for (Element y = 0; y < n_; ++y) {
        if (y != x && closure_[y][x]) return true;
    }
    return false;
}

std::vector<Element> Poset::anchors() const {
    std::vector<Element> out;
    for (Element x = 0; x < n_; ++x) {
        if (is_anchor(x)) out.push_back(x);
    }
    return out;
}

const std::vector<Element>& Poset::direct_prerequisites(Element x) const {
    check_element(x);
    return prereqs_[x];
}

bool Poset::is_antichain(const std::vector<Element>& set) const {
    for (std::size_t i = 0; i < set.size(); ++i) {
        for (std::size_t j = i + 1; j < set.size(); ++j) {
            if (set[i] == set[j] || comparable(set[i], set[j])) return false;
        }
    }
    return true;
}

std::size_t Poset::longest_chain_length() const {
    // h[e]: elements on the longest chain of prerequisites below e.
    std::vector<std::size_t> h(n_, 0);
    std::size_t longest = 0;
    for (const Element e : linear_extension()) {
        for (const Element p : prereqs_[e]) h[e] = std::max(h[e], h[p] + 1);
        longest = std::max(longest, h[e] + 1);
    }
    return longest;
}

std::vector<Element> Poset::linear_extension() const {
    ensure_closure();  // guarantees acyclicity
    std::vector<std::size_t> outstanding(n_, 0);
    std::vector<std::vector<Element>> dependents(n_);
    for (Element x = 0; x < n_; ++x) {
        outstanding[x] = prereqs_[x].size();
        for (const Element p : prereqs_[x]) dependents[p].push_back(x);
    }
    std::priority_queue<Element, std::vector<Element>, std::greater<>> ready;
    for (Element x = 0; x < n_; ++x) {
        if (outstanding[x] == 0) ready.push(x);
    }
    std::vector<Element> order;
    order.reserve(n_);
    while (!ready.empty()) {
        const Element p = ready.top();
        ready.pop();
        order.push_back(p);
        for (const Element x : dependents[p]) {
            if (--outstanding[x] == 0) ready.push(x);
        }
    }
    return order;
}

bool Poset::is_linear_extension(const std::vector<Element>& order) const {
    if (order.size() != n_) return false;
    std::vector<std::size_t> position(n_, n_);
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] >= n_ || position[order[i]] != n_) return false;
        position[order[i]] = i;
    }
    for (Element x = 0; x < n_; ++x) {
        for (const Element p : prereqs_[x]) {
            if (position[p] > position[x]) return false;
        }
    }
    return true;
}

std::vector<std::vector<Element>> layer_members(const Poset& poset) {
    const std::size_t n = poset.size();
    if (n == 0) return {};
    // Height of each element, restricted to chains of anchors (a non-anchor
    // never appears below another element, so anchor heights are unaffected
    // by non-anchors).
    std::vector<bool> anchor(n, false);
    for (const Element a : poset.anchors()) anchor[a] = true;

    std::vector<std::size_t> h(n, 0);
    std::size_t max_anchor_h = 0;
    bool any_anchor = false;
    for (const Element e : poset.linear_extension()) {
        for (const Element p : poset.direct_prerequisites(e)) {
            h[e] = std::max(h[e], h[p] + 1);
        }
        if (anchor[e]) {
            max_anchor_h = std::max(max_anchor_h, h[e]);
            any_anchor = true;
        }
    }

    std::vector<std::vector<Element>> layers(any_anchor ? max_anchor_h + 2 : 1);
    for (Element x = 0; x < n; ++x) {
        if (anchor[x]) {
            layers[h[x]].push_back(x);
        } else {
            layers.back().push_back(x);
        }
    }
    // Drop empty anchor layers (possible when anchors skip a height level).
    std::erase_if(layers, [](const std::vector<Element>& l) { return l.empty(); });
    return layers;
}

}  // namespace espread::poset
