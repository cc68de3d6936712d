#include "noc/router.hh"

#include "common/logging.hh"

namespace canon
{

Router::Router(StatGroup &stats) : hops_(stats.counter("routerHops")) {}

void
Router::bindIn(Dir d, DataChannel *ch)
{
    in_[static_cast<int>(d)] = ch;
}

void
Router::bindOut(Dir d, DataChannel *ch)
{
    out_[static_cast<int>(d)] = ch;
}

void
Router::portFault(Dir d, const char *port, const DataChannel *ch)
{
    panicIf(!ch, "Router: no channel bound at ", dirName(d), port);
    panic("Router: second ", dirName(d), port,
          " transfer in one cycle (one per direction per cycle)");
}

} // namespace canon
