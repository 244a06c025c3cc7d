/**
 * @file
 * Software model of one CommList for serial replay of the commit log
 * (ReplayOracle). CommList order is semantically irrelevant — CommTM
 * concatenates per-core partial lists in any order and a gathering
 * dequeuer takes whichever head a sharer donates — so the model is a
 * bag: an enqueue adds its value; a successful dequeue must return a
 * value the bag holds at that commit; a failed dequeue is only
 * possible when the bag is empty (dequeue falls back to a full
 * reduction before giving up). The final check compares the sorted
 * committed contents with the sorted bag.
 */

#ifndef PERFBENCH_LIST_MODEL_H
#define PERFBENCH_LIST_MODEL_H

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "lib/linked_list.h"
#include "sim/replay_oracle.h"

namespace perfbench {

class ListModel : public commtm::StructureModel
{
  public:
    enum Kind : uint32_t { kEnqueue = 0, kDequeue = 1 };

    /** @p falsify_first_enqueue corrupts the model's own expectation
     *  (self-test: proves the oracle check can fail). */
    ListModel(const commtm::CommList *list, bool falsify_first_enqueue)
        : list_(list), falsify_(falsify_first_enqueue)
    {
    }

    const char *name() const override { return "list_bag"; }

    bool
    apply(const commtm::ModelOp &op, std::string *diag) override
    {
        if (op.kind == kEnqueue) {
            uint64_t v = op.args.at(0);
            if (falsify_) {
                v ^= 1;
                falsify_ = false;
            }
            bag_[v]++;
            size_++;
            return true;
        }
        if (op.kind != kDequeue) {
            *diag = "unknown op kind " + std::to_string(op.kind);
            return false;
        }
        if (!op.ok) {
            if (size_ == 0)
                return true;
            *diag = "dequeue failed but the model holds " +
                    std::to_string(size_) + " elements";
            return false;
        }
        const uint64_t v = op.args.at(0);
        auto it = bag_.find(v);
        if (it == bag_.end()) {
            *diag = "dequeued " + std::to_string(v) +
                    ", which the model does not hold";
            return false;
        }
        if (--it->second == 0)
            bag_.erase(it);
        size_--;
        return true;
    }

    std::vector<uint8_t>
    snapshotMachine(commtm::Machine &machine) override
    {
        std::vector<uint64_t> got = list_->peekAll(machine);
        std::sort(got.begin(), got.end());
        return encode(got);
    }

    std::vector<uint8_t>
    snapshotModel() override
    {
        std::vector<uint64_t> vals;
        for (const auto &kv : bag_)
            vals.insert(vals.end(), kv.second, kv.first);
        return encode(vals); // std::map iterates in sorted key order
    }

  private:
    static std::vector<uint8_t>
    encode(const std::vector<uint64_t> &vals)
    {
        std::vector<uint8_t> out;
        out.reserve(vals.size() * 8);
        for (uint64_t v : vals) {
            for (int i = 0; i < 8; i++)
                out.push_back(uint8_t(v >> (8 * i)));
        }
        return out;
    }

    const commtm::CommList *list_;
    bool falsify_;
    std::map<uint64_t, uint64_t> bag_; //!< value -> multiplicity
    uint64_t size_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LIST_MODEL_H
