#ifndef MMM_TOOLS_MMMSA_CHECKS_H_
#define MMM_TOOLS_MMMSA_CHECKS_H_

#include <vector>

#include "lexer.h"
#include "sa.h"

/// \file
/// The token rules (token_rules.cc): checks that judge one token window at a
/// time, with no parse. Each appends findings for one file (include-cycle:
/// for the whole file set) with `path` set to the file as scanned; the
/// driver in analysis.cc fills `file`, applies suppressions, and sorts.

namespace mmmsa {

using FileCheck = void (*)(const LexedFile& file, std::vector<Finding>* out);

void CheckBannedRandom(const LexedFile& file, std::vector<Finding>* out);
void CheckDiscardedStatus(const LexedFile& file, std::vector<Finding>* out);
void CheckNakedNew(const LexedFile& file, std::vector<Finding>* out);
void CheckNakedDelete(const LexedFile& file, std::vector<Finding>* out);
void CheckMutexMissingGuard(const LexedFile& file, std::vector<Finding>* out);
void CheckRawStdMutex(const LexedFile& file, std::vector<Finding>* out);
void CheckDirectEnvWrite(const LexedFile& file, std::vector<Finding>* out);
void CheckDirectEnvRead(const LexedFile& file, std::vector<Finding>* out);
void CheckDirectManagerOpen(const LexedFile& file, std::vector<Finding>* out);
void CheckChunkDelete(const LexedFile& file, std::vector<Finding>* out);

/// DFS over the quoted-include graph of `files`; one finding per distinct
/// cycle, on the include that closes it.
void CheckIncludeCycles(const std::vector<LexedFile>& files,
                        std::vector<Finding>* out);

/// True when EffectivePath(path) lies under `dir` (e.g. "src/core/").
bool UnderDir(const std::string& path, std::string_view dir);

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_CHECKS_H_
