#include "serve/result_memo.hpp"

#include <bit>
#include <cstdint>

namespace psaflow::serve {

namespace {

/// Bumped whenever FlowProducts or what a compile writes changes shape, so
/// a key can never name products of another layout.
constexpr const char* kPayloadVersion = "flow-result/1";

/// Length-prefixed, so no field's bytes can run into the next one's.
void append_field(std::string& key, std::string_view field) {
    key += std::to_string(field.size());
    key += ':';
    key += field;
}

std::size_t string_bytes(const std::string& s) {
    return sizeof(std::string) + s.size();
}

} // namespace

ResultMemo::ResultMemo(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::string ResultMemo::key_of(const CompileRequest& req) {
    std::string key;
    key.reserve(64 + req.app.size() + req.flow_json.size());
    append_field(key, kPayloadVersion);
    append_field(key, req.app);
    append_field(key, req.mode);
    append_field(key, std::to_string(std::bit_cast<std::uint64_t>(req.budget)));
    append_field(key,
                 std::to_string(std::bit_cast<std::uint64_t>(req.threshold_x)));
    append_field(key, req.flow_json);
    return key;
}

std::size_t ResultMemo::entry_bytes(const std::string& key,
                                    const FlowProducts& products) {
    std::size_t bytes = sizeof(Entry) + sizeof(FlowProducts) + key.size();
    for (const DesignRow& row : products.designs)
        bytes += sizeof(DesignRow) + row.name.size() + row.target.size() +
                 row.device.size() + row.filename.size();
    for (const std::string& source : products.sources)
        bytes += string_bytes(source);
    bytes += products.summary_csv.size();
    for (const obs::DecisionRecord& record : products.decisions) {
        bytes += sizeof(obs::DecisionRecord) + record.branch.size() +
                 record.strategy.size() + record.rationale.size();
        for (const std::string& selected : record.selected)
            bytes += string_bytes(selected);
        for (const obs::DecisionCandidate& candidate : record.candidates)
            bytes += sizeof(obs::DecisionCandidate) + candidate.path.size() +
                     candidate.evaluation.size();
    }
    return bytes;
}

std::shared_ptr<const FlowProducts>
ResultMemo::lookup(const std::string& key) {
    std::lock_guard lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->products;
}

void ResultMemo::insert(const std::string& key,
                        std::shared_ptr<const FlowProducts> products) {
    const std::size_t bytes = entry_bytes(key, *products);
    if (bytes > capacity_) return;
    std::lock_guard lock(mu_);
    if (index_.count(key) != 0) return;
    while (bytes_ + bytes > capacity_) {
        const Entry& oldest = lru_.back();
        bytes_ -= oldest.bytes;
        index_.erase(oldest.key);
        lru_.pop_back();
    }
    lru_.push_front(Entry{key, std::move(products), bytes});
    index_.emplace(lru_.front().key, lru_.begin());
    bytes_ += bytes;
}

std::size_t ResultMemo::entries() const {
    std::lock_guard lock(mu_);
    return lru_.size();
}

std::size_t ResultMemo::bytes() const {
    std::lock_guard lock(mu_);
    return bytes_;
}

} // namespace psaflow::serve
