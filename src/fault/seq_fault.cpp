#include "fault/seq_fault.hpp"

#include <stdexcept>

namespace vcad::fault {

LocalSeqFaultBlock::LocalSeqFaultBlock(const gate::SeqNetlist& seq,
                                       bool dominance)
    : seq_(seq),
      collapsed_(collapseAll(seq.comb(), dominance,
                             /*includePrimaryInputs=*/false,
                             /*includePrimaryOutputNets=*/false)),
      engine_(std::make_shared<const gate::PackedEvaluator>(seq.comb())),
      good_(seq, engine_) {
  for (const StuckFault& f : collapsed_.representatives) {
    faultOf_[symbolOf(seq.comb(), f)] = f;
  }
}

std::vector<std::string> LocalSeqFaultBlock::faultList() {
  return symbolicFaultList(seq_.comb(), collapsed_);
}

void LocalSeqFaultBlock::resetGood() { good_.reset(); }

Word LocalSeqFaultBlock::stepGood(const Word& inputs) {
  return good_.step(inputs);
}

gate::SeqEvaluator& LocalSeqFaultBlock::shadowFor(const std::string& symbol) {
  auto it = shadows_.find(symbol);
  if (it == shadows_.end()) {
    auto fit = faultOf_.find(symbol);
    if (fit == faultOf_.end()) {
      throw std::invalid_argument("unknown fault symbol: " + symbol);
    }
    it = shadows_
             .emplace(symbol, gate::SeqEvaluator(seq_, engine_, fit->second))
             .first;
  }
  return it->second;
}

void LocalSeqFaultBlock::resetFaulty(const std::string& symbol) {
  shadowFor(symbol).reset();
}

Word LocalSeqFaultBlock::stepFaulty(const std::string& symbol,
                                    const Word& inputs) {
  return shadowFor(symbol).step(inputs);
}

SeqCampaignResult runSeqCampaign(SeqFaultClient& client,
                                 const std::vector<Word>& inputSequence) {
  SeqCampaignResult res;
  res.faultList = client.faultList();

  // Fault-free reference response.
  std::vector<Word> golden;
  golden.reserve(inputSequence.size());
  client.resetGood();
  for (const Word& in : inputSequence) {
    golden.push_back(client.stepGood(in));
    ++res.goodSteps;
  }

  // One shadow run per fault, dropped at first divergence.
  for (const std::string& symbol : res.faultList) {
    client.resetFaulty(symbol);
    for (std::size_t cycle = 0; cycle < inputSequence.size(); ++cycle) {
      const Word out = client.stepFaulty(symbol, inputSequence[cycle]);
      ++res.faultySteps;
      if (out != golden[cycle]) {
        res.detectedAtCycle[symbol] = cycle;
        break;
      }
    }
  }
  return res;
}

}  // namespace vcad::fault
