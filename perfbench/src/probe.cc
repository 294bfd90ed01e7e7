#include "probe.hh"

#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

/** VmRSS and VmHWM (MiB) from /proc/<who>/status. */
void
readStatus(const std::string &who, ProcSample &out)
{
    std::ifstream in("/proc/" + who + "/status");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        double kib = 0.0;
        ls >> key >> kib;
        if (key == "VmRSS:")
            out.rssMiB = kib / 1024.0;
        else if (key == "VmHWM:")
            out.peakRssMiB = kib / 1024.0;
    }
}

} // namespace

ProcSample
sampleSelf()
{
    ProcSample s;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.cpuMs = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
              (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
    s.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    readStatus("self", s);
    return s;
}

ProcSample
sampleProcess(pid_t pid)
{
    ProcSample s;
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    if (!std::getline(in, stat))
        return s;
    // Fields after the parenthesised command name (which may contain
    // spaces): state is field 3; minflt 10, utime 14, stime 15.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    for (int i = 3; fields >> field && i <= 15; ++i) {
        if (i == 10)
            s.minflt = std::stoull(field);
        else if (i == 14)
            utime = std::stoull(field);
        else if (i == 15)
            stime = std::stoull(field);
    }
    s.cpuMs = static_cast<double>(utime + stime) * 1e3 /
              static_cast<double>(sysconf(_SC_CLK_TCK));
    readStatus(std::to_string(pid), s);
    return s;
}

} // namespace perfbench
