/**
 * @file
 * Table I: the eight industry-representative recommendation models —
 * application domain, architectural insight, and the concrete
 * configuration recstack instantiates (tables, lookups, parameters,
 * operator counts).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Table I", "Summary of eight recommendation models");

    Characterizer characterizer;
    TextTable table({"model", "domain", "tables", "lookups/table",
                     "latent dim", "emb params", "FC params", "ops",
                     "insight"});
    for (ModelId id : allModels()) {
        const Model& m = characterizer.model(id);
        table.addRow({m.name, modelDomain(id),
                      std::to_string(m.features.numTables),
                      TextTable::fmt(m.features.lookupsPerTable, 0),
                      std::to_string(m.features.latentDim),
                      TextTable::fmt(
                          static_cast<double>(m.features.embParams) / 1e6,
                          1) + "M",
                      TextTable::fmt(
                          static_cast<double>(m.features.fcParams) / 1e6,
                          2) + "M",
                      std::to_string(m.net.opCount()), modelInsight(id)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    const auto& rm1 = characterizer.model(ModelId::kRM1).features;
    const auto& rm2 = characterizer.model(ModelId::kRM2).features;
    const auto& ncf = characterizer.model(ModelId::kNCF).features;
    const auto& din = characterizer.model(ModelId::kDIN);
    check(rm1.numTables == 8 && rm1.lookupsPerTable == 80,
          "RM1: medium amount (80) of lookups per embedding table");
    check(rm2.numTables == 32 && rm2.lookupsPerTable == 120,
          "RM2: 32 tables with large amount (120) of lookups");
    check(ncf.numTables == 4, "NCF: small model with only 4 tables");
    check(din.features.attention && din.net.opCount() > 1000,
          "DIN: large unrolled attention graph (~750 lookups, "
          "hundreds of local activation units)");
    return bench::exitStatus();
}
