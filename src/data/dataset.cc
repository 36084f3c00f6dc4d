#include "data/dataset.h"

#include <sstream>
#include <utility>

namespace ltm {

Dataset Dataset::FromRaw(std::string name, RawDatabase raw) {
  Dataset ds;
  ds.name = std::move(name);
  ds.raw = std::move(raw);
  ds.facts = FactTable::Build(ds.raw);
  ds.graph = ClaimGraph::Build(ds.raw, ds.facts);
  ds.labels = TruthLabels(ds.facts.NumFacts());
  return ds;
}

Dataset Dataset::Subset(size_t max_entities) const {
  RawDatabase sub;
  for (const RawRow& row : raw.rows()) {
    if (row.entity >= max_entities) continue;
    sub.Add(raw.entities().Get(row.entity), raw.attributes().Get(row.attribute),
            raw.sources().Get(row.source));
  }
  Dataset out = FromRaw(name + "-subset", std::move(sub));
  // Carry labels across by (entity, attribute) identity.
  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    auto label = labels.Get(f);
    if (!label.has_value()) continue;
    const Fact& fact = facts.fact(f);
    auto e = out.raw.entities().Find(raw.entities().Get(fact.entity));
    auto a = out.raw.attributes().Find(raw.attributes().Get(fact.attribute));
    if (!e || !a) continue;
    auto nf = out.facts.Find(*e, *a);
    if (nf) out.labels.Set(*nf, *label);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::SplitByEntities(
    const std::vector<EntityId>& test_entities) const {
  std::vector<uint8_t> is_test(raw.NumEntities(), 0);
  for (EntityId e : test_entities) {
    if (e < is_test.size()) is_test[e] = 1;
  }
  RawDatabase train_raw;
  RawDatabase test_raw;
  // Share the parent's source id space so quality vectors transfer 1:1.
  for (const std::string& s : raw.sources().strings()) {
    train_raw.mutable_sources().Intern(s);
    test_raw.mutable_sources().Intern(s);
  }
  for (const RawRow& row : raw.rows()) {
    RawDatabase& target = is_test[row.entity] ? test_raw : train_raw;
    target.Add(raw.entities().Get(row.entity),
               raw.attributes().Get(row.attribute),
               raw.sources().Get(row.source));
  }
  Dataset train = FromRaw(name + "-train", std::move(train_raw));
  Dataset test = FromRaw(name + "-test", std::move(test_raw));
  for (FactId f = 0; f < facts.NumFacts(); ++f) {
    auto label = labels.Get(f);
    if (!label.has_value()) continue;
    const Fact& fact = facts.fact(f);
    Dataset& target = is_test[fact.entity] ? test : train;
    auto e = target.raw.entities().Find(raw.entities().Get(fact.entity));
    auto a = target.raw.attributes().Find(raw.attributes().Get(fact.attribute));
    if (!e || !a) continue;
    auto nf = target.facts.Find(*e, *a);
    if (nf) target.labels.Set(*nf, *label);
  }
  return {std::move(train), std::move(test)};
}

std::string Dataset::SummaryString() const {
  std::ostringstream os;
  os << name << ": " << raw.NumEntities() << " entities, " << facts.NumFacts()
     << " facts, " << graph.NumClaims() << " claims ("
     << graph.NumPositiveClaims() << " positive) from " << raw.NumSources()
     << " sources; " << labels.NumLabeled() << " labeled facts ("
     << labels.NumLabeledTrue() << " true)";
  return os.str();
}

}  // namespace ltm
