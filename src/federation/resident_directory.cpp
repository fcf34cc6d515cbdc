#include "resident_directory.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace fisone::federation {

resident_directory::resident_directory(const store_registry& reg) {
    for (std::size_t s = 0; s < reg.num_stores(); ++s) {
        stores_.push_back(reg.store(s));
        offsets_.push_back(reg.store_offset(s));
    }
    appended_.assign(stores_.size(), false);
}

std::optional<resident_directory::hit> resident_directory::resolve(const std::string& name) {
    const std::lock_guard<std::mutex> lock(m_);
    if (const auto known = entries_.find(name); known != entries_.end())
        return hit{known->second.global_index, known->second.content_hash, nullptr};
    return read_locked(name);
}

std::optional<resident_directory::hit> resident_directory::read(const std::string& name) {
    const std::lock_guard<std::mutex> lock(m_);
    return read_locked(name);
}

void resident_directory::on_append(const std::string& corpus_name,
                                   const std::vector<std::string>& touched) {
    const std::lock_guard<std::mutex> lock(m_);
    for (std::size_t s = 0; s < stores_.size(); ++s)
        if (stores_[s].manifest().corpus_name == corpus_name) appended_[s] = true;
    for (const std::string& name : touched) entries_.erase(name);
}

std::optional<resident_directory::hit> resident_directory::read_locked(const std::string& name) {
    obs::scoped_span span("federation.resident_load");
    for (std::size_t s = 0; s < stores_.size(); ++s) {
        if (appended_[s]) {
            stores_[s] = stores_[s].reopen();
            appended_[s] = false;
        }
        std::optional<data::located_building> found = stores_[s].read_effective(name);
        if (!found) continue;
        const entry e{offsets_[s] + found->index, data::content_hash(found->b)};
        entries_.insert_or_assign(name, e);
        return hit{e.global_index, e.content_hash,
                   std::make_shared<const data::building>(std::move(found->b))};
    }
    return std::nullopt;
}

}  // namespace fisone::federation
