#ifndef RFV_PERFBENCH_SELFTEST_H
#define RFV_PERFBENCH_SELFTEST_H

#include <string>

namespace rfv::perfbench {

/** Check the statistics on fixed inputs; false with @p failure set. */
bool runSelfTest(std::string &failure);

} // namespace rfv::perfbench

#endif // RFV_PERFBENCH_SELFTEST_H
